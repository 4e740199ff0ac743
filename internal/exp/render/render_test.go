package render

import (
	"fmt"
	"testing"
)

func TestColumnsAlignment(t *testing.T) {
	got := Columns(" ", []int{-8, 5}, "ab", "cd")
	want := "ab          cd"
	if got != want {
		t.Errorf("Columns = %q, want %q", got, want)
	}
}

func TestColumnsZeroAndMissingWidths(t *testing.T) {
	if got := Columns(",", []int{0, 3}, "a", "b", "c"); got != "a,  b,c" {
		t.Errorf("got %q", got)
	}
	// Fewer cells than widths: trailing columns simply absent.
	if got := Columns(" ", []int{-4, 6, 6}, "x", "y"); got != "x         y" {
		t.Errorf("got %q", got)
	}
}

func TestColumnsNoTruncation(t *testing.T) {
	if got := Columns("", []int{3}, "abcdef"); got != "abcdef" {
		t.Errorf("got %q", got)
	}
	if got := Columns("", []int{-3}, "abcdef"); got != "abcdef" {
		t.Errorf("got %q", got)
	}
}

// TestColumnsMatchesFmt pins the fmt compatibility contract on the exact
// layouts the callers extracted their format strings from.
func TestColumnsMatchesFmt(t *testing.T) {
	// cmd/tracestats tier table: "%-16s %14s %8s %14s %8s".
	ts := []int{-16, 14, 8, 14, 8}
	cells := []string{"jit", "123457", "98.1%", "120001", "97.5%"}
	want := fmt.Sprintf("%-16s %14s %8s %14s %8s",
		cells[0], cells[1], cells[2], cells[3], cells[4])
	if got := Columns(" ", ts, cells...); got != want {
		t.Errorf("tracestats layout:\n got %q\nwant %q", got, want)
	}
	// exp.Table: "%-12s" label then unseparated "%14s" cells.
	want = fmt.Sprintf("%-12s%14s%14s", "swim", "1.234", "0.998")
	if got := Columns("", []int{-12, 14, 14}, "swim", "1.234", "0.998"); got != want {
		t.Errorf("exp table layout:\n got %q\nwant %q", got, want)
	}
	// Right-aligning a value with a trailing unit is identical to fmt
	// padding the number and appending the unit ("%+7.1f%%" == width 8).
	want = fmt.Sprintf("%+7.1f%%", -3.25)
	if got := Columns("", []int{8}, fmt.Sprintf("%+.1f%%", -3.25)); got != want {
		t.Errorf("unit suffix:\n got %q\nwant %q", got, want)
	}
}

func TestColumnsRuneWidths(t *testing.T) {
	want := fmt.Sprintf("%5s", "héllo") // fmt counts runes, not bytes
	if got := Columns("", []int{5}, "héllo"); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}
