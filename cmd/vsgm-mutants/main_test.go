package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueApplies checks every mutant against the current tree without
// planting it: the old text occurs exactly once in its file, the new text
// differs, and every hunter it names is defined. Every hunter's pattern must
// compile. A refactor that moves a mutant's code fails here, in the plain
// suite, instead of in make mutants.
func TestCatalogueApplies(t *testing.T) {
	var cat catalogue
	if err := json.Unmarshal(catalogueJSON, &cat); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range cat.Hunters {
		if _, err := regexp.Compile("^(" + h.Run + ")$"); err != nil {
			t.Errorf("hunter %s: %v", name, err)
		}
	}
	seen := make(map[string]bool)
	for _, m := range cat.Mutants {
		if m.Name == "" || m.Why == "" || len(m.Hunters) == 0 || seen[m.Name] {
			t.Errorf("mutant %q: needs a unique name, a reason and a hunter", m.Name)
		}
		seen[m.Name] = true
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
		if err != nil {
			t.Errorf("mutant %s: %v", m.Name, err)
			continue
		}
		if n := strings.Count(string(src), m.Old); m.Old == "" || n != 1 {
			t.Errorf("mutant %s: old text occurs %d times in %s, want exactly once", m.Name, n, m.File)
		}
		if m.Old == m.New {
			t.Errorf("mutant %s changes nothing", m.Name)
		}
		for _, name := range m.Hunters {
			if _, ok := cat.Hunters[name]; !ok {
				t.Errorf("mutant %s names unknown hunter %q", m.Name, name)
			}
		}
	}
	if len(cat.Mutants) < 12 {
		t.Errorf("catalogue holds %d mutants, want at least 12", len(cat.Mutants))
	}
}
