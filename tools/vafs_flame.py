#!/usr/bin/env python3
"""Flame-graph renderer for vaFS folded span stacks.

The FoldedStackExporter (and bench artifacts like BENCH_cluster.folded)
emit one "frame;frame;frame usec" line per unique root-to-leaf span path,
exclusive time. This tool renders them without any dependencies:

  vafs_flame.py STACKS.folded              ASCII flame tree on stdout
  vafs_flame.py STACKS.folded --svg OUT    self-contained SVG flame graph
  vafs_flame.py STACKS.folded --top N      widest-N leaf frames table

Frames come from obs::SpanFrameName: round roots ("node 2 round r17"),
transfers/appends/retries/patches per request ("transfer req5"). Width is
microseconds of simulated time attributed to that path.
"""

import argparse
import sys


class Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name):
        self.name = name
        self.value = 0  # exclusive usec charged directly to this path
        self.children = {}

    def total(self):
        return self.value + sum(child.total() for child in self.children.values())


def parse_folded(path):
    """Builds the frame trie from a folded-stacks file."""
    root = Node("all")
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.rstrip("\n")
            if not line:
                continue
            stack, _, value = line.rpartition(" ")
            if not stack:
                continue
            try:
                usec = int(value)
            except ValueError:
                continue
            node = root
            for frame in stack.split(";"):
                node = node.children.setdefault(frame, Node(frame))
            node.value += usec
    return root


def render_ascii(root, max_depth, min_pct, out=sys.stdout):
    grand_total = root.total()
    if grand_total <= 0:
        print("(no span samples)", file=out)
        return
    print(f"total attributed: {grand_total} usec", file=out)

    def walk(node, depth, prefix):
        if depth > max_depth:
            return
        children = sorted(node.children.values(), key=lambda c: -c.total())
        for child in children:
            total = child.total()
            pct = 100.0 * total / grand_total
            if pct < min_pct:
                continue
            bar = "#" * max(1, int(pct / 2))
            print(f"{prefix}{child.name:<40s} {total:>12d} us {pct:6.2f}% {bar}", file=out)
            walk(child, depth + 1, prefix + "  ")

    walk(root, 1, "  ")


def render_top(root, count, out=sys.stdout):
    leaves = []

    def walk(node, path):
        here = path + [node.name] if path or node.name != "all" else []
        if node.value > 0:
            leaves.append((node.value, ";".join(here)))
        for child in node.children.values():
            walk(child, here)

    walk(root, [])
    leaves.sort(reverse=True)
    print(f"{'usec':>12s}  path", file=out)
    for value, path in leaves[:count]:
        print(f"{value:>12d}  {path}", file=out)


def frame_color(name):
    """Deterministic warm color from the frame name (FNV-1a hash)."""
    h = 0xCBF29CE484222325
    for ch in name.encode("utf-8"):
        h = ((h ^ ch) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    red = 205 + (h & 0x3F) % 50
    green = 60 + ((h >> 8) & 0xFF) % 130
    blue = (h >> 20) % 60
    return f"rgb({red},{green},{blue})"


def render_svg(root, path, width=1200, frame_height=17):
    grand_total = root.total()
    rects = []

    def depth_of(node):
        if not node.children:
            return 1
        return 1 + max(depth_of(child) for child in node.children.values())

    max_depth = depth_of(root)
    height = (max_depth + 2) * frame_height + 40

    def esc(text):
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    def layout(node, x, w, depth):
        y = height - 30 - (depth + 1) * frame_height
        label = esc(node.name)
        pct = 100.0 * node.total() / grand_total if grand_total else 0.0
        rects.append(
            f'<g><title>{label}: {node.total()} us ({pct:.2f}%)</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" height="{frame_height - 1}" '
            f'fill="{frame_color(node.name)}" rx="1"/>'
            + (
                f'<text x="{x + 3:.2f}" y="{y + frame_height - 5}" font-size="11" '
                f'font-family="monospace">{label[: max(1, int(w / 7))]}</text>'
                if w > 25
                else ""
            )
            + "</g>"
        )
        cursor = x
        total = node.total()
        for child in sorted(node.children.values(), key=lambda c: c.name):
            child_w = w * child.total() / total if total else 0.0
            layout(child, cursor, child_w, depth + 1)
            cursor += child_w

    if grand_total > 0:
        layout(root, 10, width - 20, 0)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="#f8f8f8"/>'
        f'<text x="10" y="20" font-size="14" font-family="monospace">'
        f"vaFS span flame graph — {grand_total} usec attributed</text>"
        + "".join(rects)
        + "</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(svg)
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("folded", help="folded-stacks file (.folded)")
    parser.add_argument("--svg", metavar="PATH", help="write an SVG flame graph")
    parser.add_argument("--top", type=int, metavar="N", help="print the widest N paths")
    parser.add_argument("--max-depth", type=int, default=6, help="ASCII tree depth (default 6)")
    parser.add_argument("--min-pct", type=float, default=0.5,
                        help="hide ASCII frames narrower than this percent (default 0.5)")
    args = parser.parse_args()

    root = parse_folded(args.folded)
    if args.svg:
        render_svg(root, args.svg)
    elif args.top:
        render_top(root, args.top)
    else:
        render_ascii(root, args.max_depth, args.min_pct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
