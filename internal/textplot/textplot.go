// Package textplot renders the reproduction's figures as ASCII charts:
// horizontal bar charts for grouped comparisons and sparkline-style profiles
// for address histograms. Experiments print these next to the numeric rows
// so figure shapes can be inspected in a terminal.
package textplot

import (
	"fmt"
	"strings"
)

// Bar renders one labelled horizontal bar scaled so that max corresponds to
// width runes.
func Bar(label string, value, max float64, width int, suffix string) string {
	if max <= 0 {
		max = 1
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return fmt.Sprintf("%-22s %s%s %s", label, strings.Repeat("█", n), strings.Repeat("·", width-n), suffix)
}

// BarGroup renders a labelled group of bars with a shared scale.
func BarGroup(title string, labels []string, values []float64, format func(float64) string) string {
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	for i, v := range values {
		fmt.Fprintf(&sb, "  %s\n", Bar(labels[i], v, max, 40, format(v)))
	}
	return sb.String()
}

// Profile renders a histogram (e.g. misses per 1 KB address bucket) as rows
// of column glyphs, compressing the x axis to fit the given width.
func Profile(title string, values []uint64, width int) string {
	if len(values) == 0 {
		return title + " (empty)\n"
	}
	if width <= 0 {
		width = 100
	}
	// Compress buckets to the target width by summing.
	cols := make([]uint64, min(width, len(values)))
	per := (len(values) + len(cols) - 1) / len(cols)
	for i, v := range values {
		cols[i/per] += v
	}
	cols = cols[:(len(values)+per-1)/per]
	var max uint64
	for _, v := range cols {
		if v > max {
			max = v
		}
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (max %d per %d-bucket column)\n  ", title, max, per)
	for _, v := range cols {
		g := 0
		if max > 0 {
			g = int(v * uint64(len(glyphs)-1) / max)
		}
		sb.WriteRune(glyphs[g])
	}
	sb.WriteString("\n")
	return sb.String()
}
