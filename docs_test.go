package rfdet_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose citations TestDocCitationsResolve checks, beside every
// .go file. CHANGES.md is history: it cites sections as they were then.
var citingDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
	".claude/skills/verify/SKILL.md",
}

var (
	// A "DESIGN.md §" citation and the sections listed after it: §6, §8 and §10.
	designCite = regexp.MustCompile(`DESIGN\.md,?\s+(§\d+(?:\.\d+)?(?:(?:,|,? and)\s+§\d+(?:\.\d+)?)*)`)
	sectionRef = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	// An EXPERIMENTS.md citation names a section by the start of its title,
	// quoted; in a Go comment the quote may wrap onto the next comment line.
	experimentsCite = regexp.MustCompile(`EXPERIMENTS\.md,?\s+(?://\s*)?["“]([^"”]+)["”]`)
	designHeading   = regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+) )`)
	mdLink          = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	commentWrap     = regexp.MustCompile(`\s*\n\s*(?://)?\s*`)
	// A backquoted test or benchmark name: a glob (`TestX*Y`), a brace list
	// (`TestX{,Bitmap}` is TestX and TestXBitmap), a subtest path after it
	// (`BenchmarkFigure7/*`).
	testCite = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_*]*(?:\\{[A-Za-z0-9_,]*\\}[A-Za-z0-9_*]*)?)(?:/[^`\\s]*)?`")
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// expandBraces expands one {a,b} list in name: X{,Y}Z is XZ and XYZ.
func expandBraces(name string) []string {
	pre, rest, ok := strings.Cut(name, "{")
	if !ok {
		return []string{name}
	}
	list, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(list, ",") {
		out = append(out, pre+alt+post)
	}
	return out
}

// TestDocCitationsResolve checks that every citation of a DESIGN.md section
// or an EXPERIMENTS.md section names a heading that exists, that every
// backquoted Test, Benchmark or Fuzz name in the citing documents names a
// func of some _test.go file, and that every relative link in README.md,
// DESIGN.md and EXPERIMENTS.md names a file.
func TestDocCitationsResolve(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(read("DESIGN.md"), -1) {
		sections[m[1]+m[2]] = true
	}
	var titles []string
	for _, line := range strings.Split(read("EXPERIMENTS.md"), "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			titles = append(titles, title)
		}
	}

	files := append([]string(nil), citingDocs...)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(read(f), -1) {
				tests = append(tests, m[1])
			}
		}
	}
	for _, f := range citingDocs {
		for _, m := range testCite.FindAllStringSubmatch(read(f), -1) {
			for _, name := range expandBraces(m[1]) {
				found := false
				for _, fn := range tests {
					ok, _ := path.Match(name, fn)
					found = found || ok
				}
				if !found {
					t.Errorf("%s: no _test.go file defines %s (cited as %s)", f, name, m[0])
				}
			}
		}
	}
	for _, f := range files {
		text := read(f)
		line := func(i int) int { return strings.Count(text[:i], "\n") + 1 }
		for _, m := range designCite.FindAllStringSubmatchIndex(text, -1) {
			for _, ref := range sectionRef.FindAllStringSubmatch(text[m[2]:m[3]], -1) {
				if !sections[ref[1]] {
					t.Errorf("%s:%d: DESIGN.md has no section %s", f, line(m[0]), ref[1])
				}
			}
		}
		for _, m := range experimentsCite.FindAllStringSubmatchIndex(text, -1) {
			want := commentWrap.ReplaceAllString(text[m[2]:m[3]], " ")
			found := false
			for _, title := range titles {
				found = found || strings.HasPrefix(title, want)
			}
			if !found {
				t.Errorf("%s:%d: EXPERIMENTS.md has no section titled %q", f, line(m[0]), want)
			}
		}
	}
	for _, f := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, m := range mdLink.FindAllStringSubmatch(read(f), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
				t.Errorf("%s: link %s: %v", f, m[1], err)
			}
		}
	}
}
