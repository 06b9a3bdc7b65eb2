package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// The fixture tests mirror x/tools' analysistest: each analyzer runs over
// testdata/src/<name>/ and the diagnostics must line up 1:1 with the
// `// want "regex"` comments in the fixtures (same file, same line,
// message matching the regex). Fixtures are type-checked with the source
// importer so the test needs no pre-built export data.

func TestMaporderFixtures(t *testing.T)   { runFixture(t, maporder) }
func TestWallclockFixtures(t *testing.T)  { runFixture(t, wallclock) }
func TestNativesyncFixtures(t *testing.T) { runFixture(t, nativesync) }
func TestLockcheckFixtures(t *testing.T)  { runFixture(t, lockcheck) }

// TestUnknownAnnotationFixtures runs the driver's per-file token check: a
// //detvet: token no analyzer reads is reported, a known one is not.
func TestUnknownAnnotationFixtures(t *testing.T) {
	fset, files, _, _ := loadFixture(t, "annotations")
	matchWants(t, fset, files, unknownAnnotations(files))
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

func loadFixture(t *testing.T, name string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixtures in %s: %v", dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, fname := range names {
		f, err := parser.ParseFile(fset, fname, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	return fset, files, pkg, info
}

func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	fset, files, pkg, info := loadFixture(t, a.Name)

	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, PkgPath: a.Name}
	pass.prepareAnnotations()
	a.Run(pass)
	matchWants(t, fset, files, pass.diags)
}

func matchWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type expectation struct {
		file    string
		line    int
		re      *regexp.Regexp
		matched bool
	}
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), m[1], err)
				}
				wants = append(wants, &expectation{
					file: fset.Position(c.Pos()).Filename,
					line: fset.Position(c.Pos()).Line,
					re:   re,
				})
			}
		}
	}

	for _, d := range diags {
		posn := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", posn, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestApplies pins the package targeting: restriction lists and the
// exemption list.
func TestApplies(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{maporder, "rfdet/internal/core", true},
		{maporder, "rfdet/internal/mem", true},
		{maporder, "rfdet/internal/slicestore", true},
		{maporder, "rfdet/internal/workloads", false},
		{maporder, "rfdet", false},
		{wallclock, "rfdet/internal/core", true},
		{wallclock, "rfdet/cmd/rfdet-run", true},
		{wallclock, "rfdet/internal/stats", false},
		{wallclock, "rfdet/internal/trace", false},
		{wallclock, "rfdet/internal/harness", false},
		{nativesync, "rfdet/internal/core", true},
		{nativesync, "rfdet/internal/slicestore", true},
		{nativesync, "rfdet/internal/mem", false},
		{lockcheck, "rfdet/internal/core", true},
		{lockcheck, "rfdet/internal/alloc", true},
		{lockcheck, "rfdet/internal/kendo", true},
		{lockcheck, "rfdet/internal/harness", false},
		{lockcheck, "rfdet/cmd/rfdet-run", false},
	}
	for _, c := range cases {
		if got := c.a.applies(c.path); got != c.want {
			t.Errorf("%s.applies(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}
