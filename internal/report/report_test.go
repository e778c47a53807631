package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Table X: demo", "config", "time (s)", "speedup")
	t.AddRow("1x1", F(108.0), F(1.0))
	t.AddRow("4x4", F(12.0), F(9.0))
	return t
}

func TestStringAligned(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "Table X: demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// header and rows share the column start positions
	if !strings.HasPrefix(lines[1], "config") {
		t.Fatalf("header line %q", lines[1])
	}
	if !strings.Contains(lines[3], "108.00") {
		t.Fatalf("row line %q", lines[3])
	}
}

func TestShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	s := tb.String()
	if !strings.Contains(s, "only-one") {
		t.Fatalf("row lost: %s", s)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" || F1(1.26) != "1.3" || Pct(0.9897) != "98.97%" || I(42) != "42" {
		t.Fatal("formatters changed")
	}
}
