package harness

import (
	"fmt"
	"io"
	"strings"

	"fetchphi/internal/obs"
)

// Table is one experiment's output: the rows an evaluation section
// would print. Tables are rendered as aligned plain text (and are easy
// to diff in EXPERIMENTS.md).
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates what the paper predicts for this table.
	Claim string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, one slice per row.
	Rows [][]string
	// Notes are appended under the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// JSON converts the table to its benchmark-artifact form.
func (t *Table) JSON() obs.Table {
	return obs.Table{
		ID:      t.ID,
		Title:   t.Title,
		Claim:   t.Claim,
		Columns: t.Columns,
		Rows:    t.Rows,
		Notes:   t.Notes,
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// Itoa and Ftoa are small cell-formatting helpers used by the
// experiment builders.
func Itoa(v int64) string { return fmt.Sprintf("%d", v) }

// Ftoa formats a float cell with one decimal.
func Ftoa(v float64) string { return fmt.Sprintf("%.1f", v) }
