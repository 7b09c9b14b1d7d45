package fxnet_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents that cite the tree: every repo path, test name and flag
// they name must still exist, so a deletion that forgets its docs fails
// here rather than in a reader's shell.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	docPath = regexp.MustCompile(`\b(?:cmd|internal|scripts|examples)/[\w.-][\w./-]*`)
	docTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	// A flag is a code span that starts with one: `-keys 32 -zipf 1.3`
	// cites -keys.
	docFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)")

	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	flagDef  = regexp.MustCompile(`\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?\((?:&[\w.]+, )?"([^"]+)"`)
)

// goSources maps every .go file under the given roots to its contents.
func goSources(t *testing.T, roots ...string) map[string]string {
	t.Helper()
	src := map[string]string{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			b, err := os.ReadFile(path)
			src[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// cited returns the distinct matches of re's last group (or whole match)
// in doc, in order of first appearance.
func cited(re *regexp.Regexp, doc string) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		s := m[len(m)-1]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestDocsCiteOnlyWhatExists(t *testing.T) {
	tests := map[string]bool{}
	for path, src := range goSources(t, ".") {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
				tests[m[1]] = true
			}
		}
	}
	flags := map[string]bool{}
	for _, src := range goSources(t, "cmd", "internal/version", "internal/profiling") {
		for _, m := range flagDef.FindAllStringSubmatch(src, -1) {
			flags[m[1]] = true
		}
	}

	for _, name := range citingDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(b)
		paths := cited(docPath, doc)
		for _, p := range paths {
			if _, err := os.Stat(strings.TrimRight(p, "./")); err != nil {
				t.Errorf("%s names %s, which does not exist", name, p)
			}
		}
		names := cited(docTest, doc)
		for _, n := range names {
			if !tests[n] {
				t.Errorf("%s names %s, which no _test.go defines", name, n)
			}
		}
		var fl []string
		if name == "README.md" {
			fl = cited(docFlag, doc)
			for _, f := range fl {
				if !flags[f] {
					t.Errorf("%s names -%s, which no command registers", name, f)
				}
			}
		}
		t.Logf("%s: %d paths, %d test names, %d flags resolve", name, len(paths), len(names), len(fl))
	}
}

// The README's Go block is quoted from example_test.go, so it compiles and
// runs wherever the example does: its lines, indentation aside, are a run
// of consecutive lines of that file.
func TestReadmeQuotesExampleCode(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	trim := func(text string) string {
		lines := strings.Split(strings.TrimSpace(text), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimSpace(l)
		}
		return "\n" + strings.Join(lines, "\n") + "\n"
	}
	blocks := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1)
	if len(blocks) == 0 {
		t.Fatal("README.md has no Go block")
	}
	for _, b := range blocks {
		if !strings.Contains(trim(string(src)), trim(b[1])) {
			t.Errorf("README.md's Go block is not a run of lines of example_test.go:\n%s", b[1])
		}
	}
}

// designLineBudget caps DESIGN.md. A change that explains something new
// makes room by cutting what no longer holds; lower the budget when the
// document shrinks, never raise it.
const designLineBudget = 1396

func TestDesignWithinLineBudget(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n > designLineBudget {
		t.Errorf("DESIGN.md is %d lines, over its budget of %d", n, designLineBudget)
	}
}
