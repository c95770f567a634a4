// Package plot renders experiment results as markdown tables and ASCII
// line charts for terminal output and EXPERIMENTS.md.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a simple markdown table builder.
type Table struct {
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given headers.
func NewTable(headers ...string) *Table { return &Table{Headers: headers} }

// AddRow appends a row; short rows are padded with empty cells and long rows
// panic (a programming error in the experiment code).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		panic(fmt.Sprintf("plot: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as github-flavored markdown.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		b.WriteString("|")
		for i, c := range cells {
			b.WriteString(" ")
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			b.WriteString(" |")
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// FormatG formats a float compactly, using "inf" for infinities.
func FormatG(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// Series is one named curve for Chart.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders one or more series as an ASCII line chart. Series are
// marked with distinct runes in legend order.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 64)
	Height int // plot rows (default 16)
	Series []Series
}

var markers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Add appends a series; X and Y must have equal nonzero length.
func (c *Chart) Add(name string, x, y []float64) {
	if len(x) != len(y) || len(x) == 0 {
		panic(fmt.Sprintf("plot: series %q has %d x / %d y points", name, len(x), len(y)))
	}
	c.Series = append(c.Series, Series{Name: name, X: x, Y: y})
}

// Render writes the chart.
func (c *Chart) Render(w io.Writer) error {
	if len(c.Series) == 0 {
		return fmt.Errorf("plot: chart has no series")
	}
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return fmt.Errorf("plot: chart has no finite points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	if c.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
			return err
		}
	}
	yLo, yHi := FormatG(ymin), FormatG(ymax)
	labelW := len(yLo)
	if len(yHi) > labelW {
		labelW = len(yHi)
	}
	for r, row := range grid {
		label := strings.Repeat(" ", labelW)
		if r == 0 {
			label = fmt.Sprintf("%*s", labelW, yHi)
		} else if r == height-1 {
			label = fmt.Sprintf("%*s", labelW, yLo)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*s%s\n", strings.Repeat(" ", labelW), width-len(FormatG(xmax)), FormatG(xmin), FormatG(xmax)); err != nil {
		return err
	}
	if c.XLabel != "" || c.YLabel != "" {
		if _, err := fmt.Fprintf(w, "x: %s   y: %s\n", c.XLabel, c.YLabel); err != nil {
			return err
		}
	}
	for si, s := range c.Series {
		if _, err := fmt.Fprintf(w, "  %c %s\n", markers[si%len(markers)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

// String renders the chart to a string; errors render as text.
func (c *Chart) String() string {
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		return "plot error: " + err.Error()
	}
	return b.String()
}
