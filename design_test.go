package ballarus

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestModuleMap keeps DESIGN.md §3 in step with the tree: every
// directory under internal/ or cmd/ that holds non-test Go files has a
// row, and every row that names a directory names one that exists.
func TestModuleMap(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)`").FindAllStringSubmatch(section, -1) {
		name := strings.TrimSuffix(m[1], "/")
		rows[name] = true
		if !strings.Contains(m[1], "/") {
			continue // the root package
		}
		if fi, err := os.Stat(name); err != nil || !fi.IsDir() {
			t.Errorf("DESIGN.md §3 has a row for %s, which is not a directory", m[1])
		}
	}

	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !rows[dir] {
				rows[dir] = true // report each directory once
				t.Errorf("%s holds Go code but has no row in DESIGN.md §3", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
