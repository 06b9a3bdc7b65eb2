package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// modulePath is the import-path prefix of the packages detvet loads from
// source. Everything else (std, nothing else exists — the repo takes no
// external dependencies) is imported from the export data the go command
// produces for `go list -export`.
const modulePath = "rfdet"

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// finding is one diagnostic as printed: its position relative to the working
// directory, and the analyzer that reported it.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// run loads the packages matching patterns (default ./...) with one shared
// FileSet and type-check universe, checks every file's annotation tokens, runs
// the analyzer suite on every module package, and prints the findings. Exits
// 0 when clean, 2 on findings, so CI can gate on it.
//
// The load path is `go list -deps -export -json`, which hands back
// dependency-ordered packages plus compiled export data straight from the
// go build cache: repeat runs re-typecheck only the module's own sources,
// which keeps the full-repo sweep inside the CI lint budget.
func run(patterns []string) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		log.Fatal(err)
	}

	fset := token.NewFileSet()
	srcPkgs := map[string]*types.Package{}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gcImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if pkg, ok := srcPkgs[path]; ok {
			return pkg, nil
		}
		return gcImporter.Import(path)
	})
	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}

	// Type-check the module's packages from source, in the dependency order
	// go list already established, and run the analyzers on each.
	var diags []finding
	for _, p := range pkgs {
		if p.Standard || !isModulePkg(p.ImportPath) {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				log.Fatal(err)
			}
			files = append(files, f)
		}
		info := newInfo()
		pkg, err := tc.Check(p.ImportPath, fset, files, info)
		if err != nil {
			log.Fatal(err)
		}
		srcPkgs[p.ImportPath] = pkg

		for _, d := range unknownAnnotations(files) {
			diags = append(diags, newFinding(fset, d, "detvet"))
		}
		diags = append(diags, analyze(fset, files, pkg, info, p.ImportPath)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func isModulePkg(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

func newFinding(fset *token.FileSet, d Diagnostic, analyzer string) finding {
	pos := fset.Position(d.Pos)
	file := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: analyzer, Message: d.Message}
}

// unknownAnnotations reports every //detvet:<token> comment whose token no
// analyzer reads: such an annotation checks and silences nothing, which is
// how a retired token would rot in place unnoticed.
func unknownAnnotations(files []*ast.File) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.token()] = true
	}
	for _, kw := range lockcheckKeywords {
		known[kw] = true
	}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+annotationPrefix)
				if tok, _, _ := strings.Cut(text, " "); ok && !known[tok] {
					diags = append(diags, Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf("unknown annotation //detvet:%s: no analyzer reads it", tok)})
				}
			}
		}
	}
	return diags
}

// goList runs `go list -deps -export -json` and decodes the package stream.
func goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
