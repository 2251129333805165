"""Tests for the CLI tools (pbio-layout, pbio-dump, pbio-wal)."""

import pytest

from repro.abi import SPARC_V8, X86, RecordSchema
from repro.core import IOContext, write_records
from repro.tools.dump_tool import main as dump_main
from repro.tools.fabric_tool import main as fabric_main
from repro.tools.layout_tool import main as layout_main
from repro.tools.wal_tool import main as wal_main


class TestLayoutTool:
    def test_single_machine_layout(self, capsys):
        rc = layout_main(["--machines", "i86", "n:int", "d:double"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "int n" in out and "double d" in out

    def test_cross_machine_analysis(self, capsys):
        rc = layout_main(["--machines", "i86,sparc", "n:int", "d:double"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "i86 -> sparc" in out
        assert "conversion" in out

    def test_zero_copy_verdict_same_machine_pair(self, capsys):
        rc = layout_main(["--machines", "sparc,mips_o32", "n:int", "d:double"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "zero-copy" in out

    def test_array_fields(self, capsys):
        rc = layout_main(["--machines", "i86", "v:double[4]"])
        assert rc == 0
        assert "v[4]" in capsys.readouterr().out

    def test_unknown_machine_errors(self, capsys):
        rc = layout_main(["--machines", "cray", "n:int"])
        assert rc == 2
        assert "unknown machines" in capsys.readouterr().err

    def test_bad_field_spec_errors(self):
        with pytest.raises(SystemExit):
            layout_main(["--machines", "i86", "notafield"])

    def test_bad_type_errors(self, capsys):
        rc = layout_main(["--machines", "i86", "x:quaternion"])
        assert rc == 2
        assert "bad schema" in capsys.readouterr().err

    def test_future_work_machines_available(self, capsys):
        rc = layout_main(["--machines", "i960,strongarm", "c:char", "d:double"])
        out = capsys.readouterr().out
        assert rc == 0
        # i960 aligns doubles to 8, StrongARM (OABI) to 4: layouts differ.
        assert "conversion" in out


@pytest.fixture
def sample_file(tmp_path):
    path = str(tmp_path / "dump.pbio")
    schema = RecordSchema.from_pairs(
        "sensor", [("id", "int"), ("value", "double"), ("tag", "char[4]")]
    )
    write_records(
        IOContext(SPARC_V8),
        path,
        schema,
        [
            {"id": 1, "value": 2.5, "tag": b"aa"},
            {"id": 2, "value": -1.0, "tag": b"bb"},
        ],
    )
    return path


class TestDumpTool:
    def test_dump_decodes_without_schema(self, sample_file, capsys):
        rc = dump_main([sample_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "format 'sensor'" in out
        assert "id = 1" in out and "value = -1.0" in out
        assert "2 record(s), 1 format(s)" in out

    def test_formats_only(self, sample_file, capsys):
        rc = dump_main(["--formats", sample_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "format 'sensor'" in out
        assert "record #" not in out

    def test_hex_dump(self, sample_file, capsys):
        rc = dump_main(["--hex", sample_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "|" in out and "000000" in out

    def test_limit(self, sample_file, capsys):
        rc = dump_main(["--limit", "1", sample_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "record #1" in out and "record #2" not in out

    def test_missing_file(self, capsys):
        rc = dump_main(["/nonexistent/never.pbio"])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.pbio"
        path.write_bytes(b"garbage data here")
        rc = dump_main([str(path)])
        assert rc == 1
        assert "corrupt" in capsys.readouterr().err

    def test_damaged_record_content_exits_1(self, tmp_path, capsys):
        """A CRC-valid file whose second record's string pointer runs past
        the record: the first record prints, then exit 1 with a message."""
        from repro.core.files import PbioFileWriter

        path = str(tmp_path / "wild.pbio")
        ctx = IOContext(X86)
        handle = ctx.register_format(RecordSchema.from_pairs("note", [("n", "int"), ("text", "string")]))
        native = bytearray(handle.codec.encode({"n": 2, "text": "two"}))
        text = handle.iofmt.fields[1]
        native[text.offset : text.offset + text.size] = (len(native) + 64).to_bytes(text.size, "little")
        with PbioFileWriter.open(ctx, path) as writer:
            writer.write(handle, {"n": 1, "text": "one"})
            writer.write_native(handle, bytes(native))
        rc = dump_main([path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "record #1" in captured.out and "record #2" not in captured.out
        assert "corrupt PBIO file" in captured.err and "'note'" in captured.err

    def test_multi_format_file(self, tmp_path, capsys):
        path = str(tmp_path / "multi.pbio")
        ctx = IOContext(X86)
        from repro.core.files import PbioFileWriter

        s1 = RecordSchema.from_pairs("alpha", [("a", "int")])
        s2 = RecordSchema.from_pairs("beta", [("b", "double")])
        with PbioFileWriter.open(ctx, path) as writer:
            writer.write(ctx.register_format(s1), {"a": 1})
            writer.write(ctx.register_format(s2), {"b": 2.0})
        rc = dump_main([path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "format 'alpha'" in out and "format 'beta'" in out
        assert "2 record(s), 2 format(s)" in out


@pytest.fixture
def wal_dir(tmp_path):
    """A WAL directory with three segments of one sequenced stream."""
    from repro.net import DurablePublisher, EventChannel

    schema = RecordSchema.from_pairs("point", [("x", "int"), ("y", "double")])
    ctx = IOContext(X86, context_id=0x1234)
    handle = ctx.register_format(schema)
    directory = str(tmp_path / "wal")
    pub = DurablePublisher(EventChannel(), ctx, wal_dir=directory, segment_bytes=4096)
    for i in range(200):
        pub.publish(handle, {"x": i, "y": i * 0.5})
    pub.close()
    return directory


class TestWalTool:
    def test_ls_reports_streams_and_cursors(self, wal_dir, capsys):
        rc = wal_main(["ls", wal_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wal-00000001.seg" in out
        assert "ctx=0x1234 fmt=1" in out
        assert "200 journaled, acked through 0, ~200 unacked" in out

    def test_verify_clean(self, wal_dir, capsys):
        rc = wal_main(["verify", wal_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("clean")

    def test_verify_detects_torn_tail(self, wal_dir, capsys):
        import os

        segs = sorted(n for n in os.listdir(wal_dir) if n.endswith(".seg"))
        with open(os.path.join(wal_dir, segs[-1]), "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            stream.truncate(stream.tell() - 3)
        rc = wal_main(["verify", wal_dir])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 torn" in out and "DAMAGED" in out

    def test_verify_detects_corruption(self, wal_dir, capsys):
        import os

        segs = sorted(n for n in os.listdir(wal_dir) if n.endswith(".seg"))
        path = os.path.join(wal_dir, segs[0])
        data = bytearray(open(path, "rb").read())
        data[40] ^= 0xFF  # flip a payload byte inside the first frame
        open(path, "wb").write(bytes(data))
        rc = wal_main(["verify", wal_dir, "--quiet"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 corrupt" in out

    def test_compact_heals_torn_tail(self, wal_dir, capsys):
        import os

        segs = sorted(n for n in os.listdir(wal_dir) if n.endswith(".seg"))
        with open(os.path.join(wal_dir, segs[-1]), "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            stream.truncate(stream.tell() - 3)
        rc = wal_main(["compact", wal_dir])
        assert rc == 1  # damage was found (and healed)
        capsys.readouterr()
        rc = wal_main(["verify", wal_dir, "--quiet"])
        assert rc == 0  # the heal stuck

    def test_compact_drops_fully_acked_segments(self, wal_dir, capsys):
        import os

        from repro.net import PublisherWAL

        with PublisherWAL(wal_dir, segment_bytes=4096) as wal:
            wal.ack((0x1234, 1), 200)
        before = len([n for n in os.listdir(wal_dir) if n.endswith(".seg")])
        rc = wal_main(["compact", wal_dir])
        out = capsys.readouterr().out
        assert rc == 0
        after = len([n for n in os.listdir(wal_dir) if n.endswith(".seg")])
        assert after <= before
        assert "0 entries unacked" in out

    def test_not_a_directory(self, tmp_path, capsys):
        rc = wal_main(["ls", str(tmp_path / "nope")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err

    def test_not_a_wal_file(self, tmp_path, capsys):
        directory = str(tmp_path)
        (tmp_path / "wal-00000001.seg").write_bytes(b"garbage bytes here")
        rc = wal_main(["verify", directory])
        assert rc == 2
        assert "not a WAL file" in capsys.readouterr().err


class TestFabricTool:
    def test_ring_prints_shares_and_sample_channels(self, capsys):
        rc = fabric_main(["ring", "--workers", "3", "--channels", "100", "--key", "7:1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 worker(s)" in out
        assert "w0" in out and "w2" in out
        assert "100 sample channel(s)" in out
        assert "channel (7, 1) -> w" in out

    def test_ring_balance_is_visibly_fair(self, capsys):
        assert fabric_main(["ring", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        import re

        shares = [
            float(line.split()[1])
            for line in out.splitlines()
            if re.match(r"^w\d", line)
        ]
        assert len(shares) == 4
        for share in shares:
            assert abs(share - 0.25) <= 0.05  # within 20% of fair

    def test_usage_errors_exit_2(self, capsys):
        assert fabric_main(["ring", "--workers", "0"]) == 2
        assert fabric_main(["ring", "--workers", "2", "--key", "junk"]) == 2
        assert fabric_main(["serve", "--workers", "0"]) == 2
        capsys.readouterr()

    def test_status_against_dead_port_exits_1(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = fabric_main(
            ["status", "--server", f"127.0.0.1:{port}", "--timeout", "0.5"]
        )
        assert rc == 1
        assert "DOWN" in capsys.readouterr().err


@pytest.mark.integration
class TestFabricServeOverSockets:
    def test_serve_status_and_routing_round_trip(self, tmp_path, capsys):
        import os
        import re
        import socket
        import subprocess
        import sys

        from repro.abi import SPARC_V8
        from repro.net.sockets import SocketTransport
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.tools.fabric_tool import main; import sys;"
                "sys.exit(main(sys.argv[1:]))",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert "fabric: 2 worker(s)" in proc.stdout.readline()
            match = re.match(r"listening on (\S+):(\d+)", proc.stdout.readline())
            assert match, "no listen line"
            host, port = match.group(1), int(match.group(2))
            assert fabric_main(["status", "--server", f"{host}:{port}"]) == 0
            assert "alive" in capsys.readouterr().out

            # One peer publishes, another subscribes through its tap.
            schema = RecordSchema.from_pairs(
                "telemetry", [("unit", "int"), ("temperature", "double")]
            )
            rx_sock = socket.create_connection((host, port), timeout=10)
            rx_sock.settimeout(10)
            rx = SocketTransport(rx_sock)
            rx_ctx = IOContext(X86)
            rx_ctx.expect(schema)
            tx_sock = socket.create_connection((host, port), timeout=10)
            tx_sock.settimeout(10)
            tx = SocketTransport(tx_sock)
            sender = IOContext(SPARC_V8)
            handle = sender.register_format(schema)
            tx.send_many(
                [
                    sender.announce(handle),
                    sender.encode(handle, {"unit": 3, "temperature": 30.0}),
                ]
            )
            record = None
            while record is None:
                record = rx_ctx.receive(rx.recv())
            assert record == {"unit": 3, "temperature": 30.0}
            tx.close()
            rx.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
