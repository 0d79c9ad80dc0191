package backend

import (
	"strings"
	"testing"
)

// TestParseKind pins the backend name parser every input boundary (grids,
// sim specs) goes through: the empty string and "detailed" select the
// detailed pipeline, names are case-sensitive, an unknown name fails with
// an error that names it and lists the known ones, and every Kind
// round-trips through its name and its implementation.
func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{"": Detailed, "detailed": Detailed, "functional": Functional} {
		if got, err := ParseKind(in); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"fast", "approx", "Detailed"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted an unknown backend", bad)
		} else if !strings.Contains(err.Error(), `"`+bad+`"`) || !strings.Contains(err.Error(), "detailed, functional") {
			t.Errorf("ParseKind(%q): error %q does not name the input and list the known backends", bad, err)
		}
	}
	for _, k := range Kinds() {
		if got := For(k).Kind(); got != k {
			t.Errorf("For(%v).Kind() = %v", k, got)
		}
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
}
