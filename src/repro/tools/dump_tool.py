"""pbio-dump: inspect a PBIO file without any schema knowledge.

Usage::

    pbio-dump data.pbio            # formats + decoded records
    pbio-dump --formats data.pbio  # format meta-information only
    pbio-dump --hex data.pbio      # add payload hex dumps
    pbio-dump --limit 10 data.pbio

Everything is driven by the file's own meta-information — this tool is
itself a demonstration of the reflection capability: it was never told
what records the file contains.
"""

from __future__ import annotations

import argparse
import sys

from repro.abi import X86_64
from repro.core import IOContext, PbioError, generic_decode, incoming_format
from repro.core.files import PbioFileReader


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbio-dump", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("path", help="PBIO file to dump")
    parser.add_argument("--formats", action="store_true", help="show only format meta-information")
    parser.add_argument("--hex", action="store_true", help="hex-dump each record payload")
    parser.add_argument("--limit", type=int, default=None, help="stop after N records")
    return parser


def hex_dump(data: bytes, indent: str = "    ", width: int = 16) -> str:
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        text = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{indent}{off:06x}  {hexpart:<{width * 3}} |{text}|")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    ctx = IOContext(X86_64)  # the dumper's own machine is irrelevant
    seen_formats: set[bytes] = set()
    count = 0
    try:
        with PbioFileReader.open(ctx, args.path) as reader:
            for message in reader.iter_raw():
                fmt = incoming_format(ctx, message)
                if fmt.fingerprint not in seen_formats:
                    seen_formats.add(fmt.fingerprint)
                    print(fmt.describe())
                if args.formats:
                    continue
                record = generic_decode(ctx, message)
                count += 1
                print(f"record #{count} ({fmt.name}):")
                for key, value in record.items():
                    rendered = repr(value)
                    if len(rendered) > 70:
                        rendered = rendered[:67] + "..."
                    print(f"    {key} = {rendered}")
                if args.hex:
                    print(hex_dump(bytes(message[16:])))
                if args.limit is not None and count >= args.limit:
                    break
    except FileNotFoundError:
        print(f"no such file: {args.path}", file=sys.stderr)
        return 2
    except PbioError as exc:
        print(f"corrupt PBIO file: {exc}", file=sys.stderr)
        return 1
    if not args.formats:
        print(f"-- {count} record(s), {len(seen_formats)} format(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
