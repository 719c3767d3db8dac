"""Terminal-friendly visualisation: ASCII charts and table/CSV writers."""

from .._lazy import lazy_exports

__all__ = [
    "line_chart",
    "bar_chart",
    "format_markdown_table",
    "format_fixed_width_table",
    "rows_to_csv_text",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".ascii_chart": ("bar_chart", "line_chart"),
    ".tables": (
        "format_fixed_width_table", "format_markdown_table", "rows_to_csv_text", "write_csv",
    ),
})
