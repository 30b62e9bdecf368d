package analysis

import (
	"fmt"
	"io"
	"strings"
)

// RenderMarkdown writes a table as GitHub-flavoured Markdown: a heading,
// the pipe table, and the note as a blockquote. lbbench -format md uses it
// to emit the suite as one Markdown report.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "## %s\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(escapeCells(t.Header), " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		cells := escapeCells(row)
		// Pad short rows so the Markdown table stays rectangular.
		for len(cells) < len(t.Header) {
			cells = append(cells, "")
		}
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "\n> %s\n", t.Note)
	}
	sb.WriteString("\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("analysis: render markdown: %w", err)
	}
	return nil
}

func escapeCells(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return out
}

// WriteReport renders a full experiment suite as one Markdown document.
func WriteReport(w io.Writer, title string, tables []*Table) error {
	if _, err := fmt.Fprintf(w, "# %s\n\n", title); err != nil {
		return fmt.Errorf("analysis: write report: %w", err)
	}
	for _, t := range tables {
		if err := t.RenderMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}
