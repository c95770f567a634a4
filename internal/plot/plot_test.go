package plot

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.5")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "| ---") && !strings.Contains(lines[1], "-") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "alpha") {
		t.Errorf("row missing: %q", lines[2])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tb.Rows[0])
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tb := NewTable("a")
	defer func() {
		if recover() == nil {
			t.Fatalf("long row accepted")
		}
	}()
	tb.AddRow("1", "2")
}

func TestFormatG(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{0, "0"},
	}
	for _, tc := range cases {
		if got := FormatG(tc.in); got != tc.want {
			t.Errorf("FormatG(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestChartRender(t *testing.T) {
	c := &Chart{Title: "cost vs width", XLabel: "W", YLabel: "omega", Width: 40, Height: 10}
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 3, 2, 3, 5}
	c.Add("omega", x, y)
	out := c.String()
	if !strings.Contains(out, "cost vs width") {
		t.Errorf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("marker missing:\n%s", out)
	}
	if !strings.Contains(out, "omega") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "x: W") {
		t.Errorf("axis labels missing:\n%s", out)
	}
}

func TestChartMultipleSeriesDistinctMarkers(t *testing.T) {
	c := &Chart{Width: 30, Height: 8}
	c.Add("a", []float64{0, 1}, []float64{0, 1})
	c.Add("b", []float64{0, 1}, []float64{1, 0})
	out := c.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("markers missing:\n%s", out)
	}
}

func TestChartEmptyFails(t *testing.T) {
	c := &Chart{}
	var b strings.Builder
	if err := c.Render(&b); err == nil {
		t.Errorf("empty chart rendered")
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	c := &Chart{Width: 20, Height: 5}
	c.Add("flat", []float64{1, 1, 1}, []float64{2, 2, 2})
	out := c.String()
	if strings.Contains(out, "error") {
		t.Errorf("flat series failed:\n%s", out)
	}
}

func TestChartSkipsNonFinite(t *testing.T) {
	c := &Chart{Width: 20, Height: 5}
	c.Add("s", []float64{1, 2, 3}, []float64{1, math.Inf(1), 2})
	out := c.String()
	if strings.Contains(out, "error") {
		t.Errorf("non-finite point broke chart:\n%s", out)
	}
}

func TestChartAddPanicsOnMismatch(t *testing.T) {
	c := &Chart{}
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched series accepted")
		}
	}()
	c.Add("bad", []float64{1, 2}, []float64{1})
}
