// Package report renders the experiment outputs: column-aligned text
// tables in the layout of the paper's Tables I–V and paper-vs-reproduced
// comparison rows. Rendering is pure formatting — rows appear exactly in
// insertion order, so reports are reproducible byte for byte given the
// same inputs.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned table builder.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 2–4
// significant decimals via Cell helpers below.
func (t *Table) AddRow(cells ...string) *Table {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// F formats a float for a table cell with two decimals.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// F1 formats with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Pct formats a ratio as a percentage with two decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// I formats an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
