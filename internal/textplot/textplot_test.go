package textplot

import (
	"strings"
	"testing"
)

func TestBarScalesToWidth(t *testing.T) {
	full := Bar("x", 10, 10, 20, "v")
	if got := strings.Count(full, "█"); got != 20 {
		t.Fatalf("full bar has %d glyphs, want 20", got)
	}
	half := Bar("x", 5, 10, 20, "v")
	if got := strings.Count(half, "█"); got != 10 {
		t.Fatalf("half bar has %d glyphs, want 10", got)
	}
	if !strings.HasPrefix(full, "x") || !strings.HasSuffix(full, "v") {
		t.Fatalf("bar format: %q", full)
	}
}

func TestBarClampsOutOfRange(t *testing.T) {
	over := Bar("x", 100, 10, 20, "")
	if got := strings.Count(over, "█"); got != 20 {
		t.Fatalf("overlong bar has %d glyphs", got)
	}
	neg := Bar("x", -5, 10, 20, "")
	if got := strings.Count(neg, "█"); got != 0 {
		t.Fatalf("negative bar has %d glyphs", got)
	}
	zeroMax := Bar("x", 1, 0, 20, "")
	if !strings.Contains(zeroMax, "█") {
		t.Fatal("zero max should not panic and should render against max 1")
	}
}

func TestBarGroup(t *testing.T) {
	out := BarGroup("title", []string{"a", "b"}, []float64{1, 2},
		func(v float64) string { return "ok" })
	if !strings.Contains(out, "title") || strings.Count(out, "ok") != 2 {
		t.Fatalf("group output: %q", out)
	}
}

func TestProfileCompressesWidth(t *testing.T) {
	vals := make([]uint64, 1000)
	vals[0] = 5
	vals[999] = 10
	out := Profile("p", vals, 100)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("profile output lines = %d", len(lines))
	}
	if got := len([]rune(strings.TrimSpace(lines[1]))); got > 100 {
		t.Fatalf("profile row %d columns, want <= 100", got)
	}
	if !strings.Contains(lines[1], "█") {
		t.Fatal("max bucket should render a full-height glyph")
	}
}

func TestProfileEmptyAndZero(t *testing.T) {
	if out := Profile("e", nil, 10); !strings.Contains(out, "empty") {
		t.Fatalf("empty profile output: %q", out)
	}
	out := Profile("z", make([]uint64, 5), 10)
	if !strings.Contains(out, "max 0") {
		t.Fatalf("zero profile output: %q", out)
	}
}
