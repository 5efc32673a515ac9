import pytest

from chgsets import (
    Cyclic,
    Interval,
    ParameterError,
    Product,
    build_zmatrix,
    group_from_string,
    group_to_string,
    gset,
    norm_set,
    pbm_text,
    read_set,
    set_from_text,
    set_to_text,
    write_set,
    zmatrix_summary,
)


class TestGroupStrings:
    @pytest.mark.parametrize(
        "group,text",
        [(Cyclic(7), "cyclic:7"), (Product(3, 3), "product:3^3"), (Interval(100), "interval:100")],
    )
    def test_round_trip(self, group, text):
        assert group_to_string(group) == text
        assert group_from_string(text) == group

    def test_bad_strings(self):
        for text in ("ring:5", "cyclic:x", "product:3", "interval:0", ""):
            with pytest.raises(ParameterError):
                group_from_string(text)


class TestSetFiles:
    def test_interval_written_one_based(self):
        a = gset(Interval(5), [0, 1, 4])
        text = set_to_text(a)
        assert text == "# group=interval:5\n1\n2\n5\n"

    def test_product_format(self):
        a = gset(Product(3, 2), [(0, 1), (2, 2)])
        assert set_to_text(a) == "# group=product:3^2\n0,1\n2,2\n"

    def test_round_trip_all_kinds(self, tmp_path):
        sets = [
            gset(Interval(9), [0, 3, 8]),
            gset(Cyclic(11), [0, 1, 7]),
            gset(Product(5, 2), [(0, 0), (4, 3)]),
            norm_set(3, 2)[0],
        ]
        for idx, a in enumerate(sets):
            path = tmp_path / f"set{idx}.txt"
            write_set(path, a)
            assert read_set(path) == a

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n# group=interval:10\n\n3\n# trailing note\n7\n"
        a = set_from_text(text)
        assert a.group == Interval(10)
        assert a.elems == (2, 6)

    def test_missing_header(self):
        with pytest.raises(ParameterError):
            set_from_text("1\n2\n")

    def test_out_of_window_value(self):
        with pytest.raises(ParameterError):
            set_from_text("# group=interval:5\n6\n")
        with pytest.raises(ParameterError):
            set_from_text("# group=interval:5\n0\n")

    def test_bad_element_line(self):
        with pytest.raises(ParameterError):
            set_from_text("# group=cyclic:5\nfoo\n")


class TestMatrixExports:
    def test_pbm_shape(self):
        g = Cyclic(3)
        zm = build_zmatrix(gset(g, [0]))
        text = pbm_text(zm)
        lines = text.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "3 3"
        assert len(lines) == 5
        assert all(set(line.split()) <= {"0", "1"} for line in lines[2:])

    def test_summary_fields(self):
        a, _ = norm_set(3, 2)
        zm = build_zmatrix(a)
        summary = zmatrix_summary(zm, 3, 2, True)
        assert summary == {
            "n": 9,
            "ones": 36,
            "row_sums_uniform": True,
            "g": 3,
            "h": 2,
            "kgh_free": True,
        }
