"""CLI graphinfo command and edge-list input path."""

from repro.cli import main as cli_main
from repro.graph import ring, write_edge_list


class TestGraphInfo:
    def test_synthetic(self, capsys):
        rc = cli_main(["graphinfo", "--communities", "4",
                       "--community-size", "32", "--no-ier"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "clustering" in out
        assert "inner-edge ratio" not in out  # --no-ier

    def test_with_ier_curve(self, capsys):
        rc = cli_main(["graphinfo", "--communities", "4",
                       "--community-size", "32"])
        assert rc == 0
        assert "inner-edge ratio" in capsys.readouterr().out

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "g.tsv"
        write_edge_list(ring(12), path)
        rc = cli_main(["graphinfo", "--edge-list", str(path), "--no-ier"])
        assert rc == 0
        assert "12" in capsys.readouterr().out
