package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// paperOrder is renobench's figure order with its section titles.
var paperOrder = []struct {
	title string
	run   func(ctx context.Context, w io.Writer, opts Options)
}{
	{"Instruction mix (Section 4.2)", TableMix},
	{"Figure 8", Fig8},
	{"Figure 9", Fig9},
	{"Figure 10", Fig10},
	{"Figure 11", Fig11},
	{"Figure 12", Fig12},
	{"CF fusion-latency ablation (Section 3.3)", CFLatencyAblation},
}

// TestFiguresPinned pins the text of every table and figure at a reduced
// size, in renobench's layout without its timing lines, on one worker and
// on three: the figures must not depend on the pool width. Regenerate
// testdata/figures.golden with UPDATE_GOLDEN=1, and only for a change
// meant to move the figures.
func TestFiguresPinned(t *testing.T) {
	golden := filepath.Join("testdata", "figures.golden")
	for _, workers := range []int{1, 3} {
		var b bytes.Buffer
		opts := Options{Scale: 0.1, MaxInsts: 10_000, Parallel: true, Workers: workers}
		for _, f := range paperOrder {
			fmt.Fprintf(&b, "==== %s ====\n", f.title)
			f.run(context.Background(), &b, opts)
			fmt.Fprintln(&b)
		}
		if strings.Contains(b.String(), "WARNING") {
			t.Errorf("%d workers: figure output carries audit warnings:\n%s", workers, b.String())
		}
		if os.Getenv("UPDATE_GOLDEN") != "" && workers == 1 {
			if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%d workers: figure text differs from %s:\n%s", workers, golden, b.String())
		}
	}
}
