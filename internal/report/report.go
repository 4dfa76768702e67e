// Package report renders experiment results as aligned text tables,
// JSON, and ASCII plots — the output layer that regenerates the paper's
// tables and figures on a terminal.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrShape reports inconsistent table dimensions.
var ErrShape = errors.New("report: inconsistent table shape")

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns an empty table with the given title and column
// headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are stringified with %v, floats compactly.
func (t *Table) AddRow(cells ...any) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("%w: row has %d cells, table has %d columns", ErrShape, len(cells), len(t.Columns))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
	return nil
}

// MustAddRow is AddRow for statically-shaped callers; it panics on shape
// mismatch.
func (t *Table) MustAddRow(cells ...any) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// formatCell renders one value compactly.
func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return FormatFloat(v)
	case float32:
		return FormatFloat(float64(v))
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatFloat renders a float with sensible precision across the many
// orders of magnitude reliability numbers span.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == 0:
		return "0"
	}
	a := math.Abs(v)
	switch {
	case a >= 1e6 || a < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		// Trim the trailing pad of the last column.
		s := strings.TrimRight(sb.String(), " ")
		sb.Reset()
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
