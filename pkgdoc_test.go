package repro_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reno/internal/lint"
)

// TestAllInternalPackagesHaveDocComments pins the documentation contract:
// every internal package carries a package comment, so `go doc
// ./internal/<pkg>` is useful for all of them. A new package without one
// fails here rather than silently shipping undocumented. The floor pins a
// census (21 top-level packages when it was set, plus lint's framework
// subpackages; internal/jsonread, the 22nd, is the newest) so an
// accidentally deleted directory cannot silently shrink coverage.
func TestAllInternalPackagesHaveDocComments(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 21 {
		t.Fatalf("expected at least 21 internal packages, found %d", len(dirs))
	}
	sub, err := filepath.Glob("internal/lint/*")
	if err != nil {
		t.Fatal(err)
	}
	checkDocComments(t, append(dirs, sub...))
}

// TestAnalyzersAreDocumented holds the lint suite to the same standard as
// packages: every analyzer must carry a non-empty Doc whose first line is
// a usable one-line summary (renolint -help and docs/linting.md are built
// from these).
func TestAnalyzersAreDocumented(t *testing.T) {
	analyzers := lint.Analyzers()
	if len(analyzers) < 5 {
		t.Fatalf("lint suite has %d analyzers, want >= 5", len(analyzers))
	}
	for _, a := range analyzers {
		doc := strings.TrimSpace(a.Doc)
		if doc == "" {
			t.Errorf("analyzer %s has an empty Doc string", a.Name)
			continue
		}
		first, _, _ := strings.Cut(doc, "\n")
		if len(strings.Fields(first)) < 3 {
			t.Errorf("analyzer %s: Doc first line %q is not a usable summary", a.Name, first)
		}
	}
}

// TestPublicPackagesHaveDocComments holds the public API surface to the
// same standard: the facade and metrics packages are the module's
// documentation front door, so they must carry package comments (their
// exported identifiers are additionally pinned by TestPublicAPISurface).
func TestPublicPackagesHaveDocComments(t *testing.T) {
	checkDocComments(t, publicPackages)
}

func checkDocComments(t *testing.T, dirs []string) {
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.Contains(f.Doc.Text(), "Package "+name) {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package comment; add one so `go doc` output is useful", name, dir)
			}
		}
	}
}
