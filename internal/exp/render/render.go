// Package render holds the fixed-width column layout shared by the repo's
// table printers (exp figure tables, cmd/tracedump disassembly,
// cmd/tracestats summaries). Value formatting stays with the
// caller; this package only pads and joins already-formatted cells, with
// fmt-compatible semantics so extractions from Sprintf format strings stay
// byte-identical.
package render

import (
	"strings"
	"unicode/utf8"
)

// Columns pads each cell to its column width and joins the cells with sep.
// A negative width left-aligns (fmt's "%-Ns"), a positive one right-aligns
// ("%Ns"), and zero leaves the cell unpadded. Like fmt, width counts runes
// and never truncates an over-wide cell. Cells beyond len(widths) render
// unpadded; unused trailing widths render nothing, so one layout serves
// rows with fewer columns (e.g. a summary row).
func Columns(sep string, widths []int, cells ...string) string {
	var sb strings.Builder
	for i, c := range cells {
		if i > 0 {
			sb.WriteString(sep)
		}
		w := 0
		if i < len(widths) {
			w = widths[i]
		}
		left := w < 0
		if left {
			w = -w
		}
		pad := w - utf8.RuneCountInString(c)
		if pad <= 0 {
			sb.WriteString(c)
			continue
		}
		if left {
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", pad))
		} else {
			sb.WriteString(strings.Repeat(" ", pad))
			sb.WriteString(c)
		}
	}
	return sb.String()
}
