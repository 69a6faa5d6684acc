package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a miniature repo for the checker.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const fakeLiveMain = `package main
func run() {
	a := fs.Int("servers", 2, "")
	b := fs.String("debug-addr", "", "")
}
`

const fakeSoakMain = `package main
func run() {
	a := fs.String("mode", "all", "")
	b := fs.Int64("seed", 0, "")
}
`

const fakeFsckMain = `package main
func run() {
	a := fs.String("dir", "", "")
	b := fs.Bool("json", false, "")
}
`

const fakeKVMain = `package main
func run() {
	a := fs.Int("shards", 2, "")
}
`

const fakeBenchMain = `package main
func run() {
	a := fs.Bool("kv", false, "")
	b := fs.Float64("kv-read", 0.5, "")
}
`

// fakeMetrics registers one plainly named metric and one family member.
const fakeMetrics = `package obs
func wire() {
	reg.Counter("vsgm_server_attaches_total", "")
	reg.Counter("vsgm_link_dials_total", "")
	if strings.HasPrefix(name, "vsgm_link_") { // filter prefix, not a metric
	}
}
`

// goodTree is a complete miniature repo that passes every check.
func goodTree() map[string]string {
	return map[string]string{
		"README.md": "see [design](DESIGN.md), [arch](docs/ARCHITECTURE.md), [sharding](docs/SHARDING.md)",
		"DESIGN.md": "back to [readme](README.md), external [paper](https://example.org/x), [anchor](#s1)",
		"docs/OPERATIONS.md": "flags: `-servers`, `-debug-addr`, `-mode`, `-seed`, `-dir`, `-json`, `-shards`, `-kv`, `-kv-read`\n" +
			"metrics: vsgm_server_attaches_total and the vsgm_link_ family\n",
		"docs/ARCHITECTURE.md":       "packages: internal/obs; binaries: cmd/vsgm-live, cmd/vsgm-soak, cmd/vsgm-fsck, cmd/vsgm-kv, cmd/vsgm-bench, cmd/vsgm-docscheck",
		"docs/SHARDING.md":           "the sharding doc",
		"cmd/vsgm-live/main.go":      fakeLiveMain,
		"cmd/vsgm-soak/main.go":      fakeSoakMain,
		"cmd/vsgm-fsck/main.go":      fakeFsckMain,
		"cmd/vsgm-kv/main.go":        fakeKVMain,
		"cmd/vsgm-bench/main.go":     fakeBenchMain,
		"cmd/vsgm-docscheck/main.go": "package main\n",
		"internal/obs/metrics.go":    fakeMetrics,
	}
}

func TestDocsCheckPasses(t *testing.T) {
	root := writeTree(t, goodTree())
	var out bytes.Buffer
	if err := run([]string{"-root", root}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all links resolve") {
		t.Errorf("missing success line:\n%s", out.String())
	}
}

func TestDocsCheckFlagsBrokenLink(t *testing.T) {
	tree := goodTree()
	tree["README.md"] += "\nsee [missing](NOPE.md)"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("broken link accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `broken link "NOPE.md"`) {
		t.Errorf("missing violation line:\n%s", out.String())
	}
}

func TestDocsCheckFlagsUndocumentedFlag(t *testing.T) {
	tree := goodTree()
	tree["docs/OPERATIONS.md"] = "flags: `-servers`, `-mode`, `-dir`, `-shards`, `-kv-read` only\n" +
		"metrics: vsgm_server_attaches_total and the vsgm_link_ family\n"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("undocumented flag accepted:\n%s", out.String())
	}
	for _, want := range []string{
		"vsgm-live flag -debug-addr is undocumented",
		"vsgm-soak flag -seed is undocumented",
		"vsgm-fsck flag -json is undocumented",
		"vsgm-bench flag -kv is undocumented",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing violation %q:\n%s", want, out.String())
		}
	}
}

// TestDocsCheckFlagsStaleFlag documents a flag no binary defines any more in a
// flag table: the handbook must not outlive the flag.
func TestDocsCheckFlagsStaleFlag(t *testing.T) {
	tree := goodTree()
	tree["docs/OPERATIONS.md"] += "\n| Flag | Meaning |\n|---|---|\n| `-servers` | number of servers |\n| `-leave` | remove one member |\n"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("stale flag row accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "flag -leave is documented but no binary defines it") {
		t.Errorf("missing stale-flag violation:\n%s", out.String())
	}
	if strings.Contains(out.String(), "flag -servers is documented but") {
		t.Errorf("defined flag reported stale:\n%s", out.String())
	}
}

func TestDocsCheckMetricUndocumented(t *testing.T) {
	tree := goodTree()
	tree["internal/obs/metrics.go"] = strings.Replace(fakeMetrics,
		`reg.Counter("vsgm_server_attaches_total", "")`,
		`reg.Counter("vsgm_server_attaches_total", "")
	reg.Counter("vsgm_server_brand_new_total", "")`, 1)
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("undocumented metric accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "metric vsgm_server_brand_new_total exists in code but is undocumented") {
		t.Errorf("missing metric violation:\n%s", out.String())
	}
}

func TestDocsCheckMetricFamilyCoversMembers(t *testing.T) {
	// vsgm_link_dials_total is not documented verbatim, but the documented
	// vsgm_link_ family prefix covers it — no violation.
	root := writeTree(t, goodTree())
	var out bytes.Buffer
	if err := run([]string{"-root", root}, &out); err != nil {
		t.Fatalf("family-covered metric flagged: %v\n%s", err, out.String())
	}
}

func TestDocsCheckMetricStaleInDocs(t *testing.T) {
	tree := goodTree()
	tree["docs/OPERATIONS.md"] += "stale: vsgm_server_removed_total and the vsgm_ghost_ family\n"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("stale doc metric accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "metric vsgm_server_removed_total is documented but does not exist in code") {
		t.Errorf("missing stale-metric violation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "metric family vsgm_ghost_* matches nothing in code") {
		t.Errorf("missing stale-family violation:\n%s", out.String())
	}
}

func TestDocsCheckArchitectureCoverage(t *testing.T) {
	tree := goodTree()
	tree["internal/newpkg/newpkg.go"] = "package newpkg\n"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("unmapped package accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "internal/newpkg is not mentioned") {
		t.Errorf("missing architecture violation:\n%s", out.String())
	}
}

func TestDocsCheckReadmeMustLinkNavDocs(t *testing.T) {
	tree := goodTree()
	tree["README.md"] = "see [design](DESIGN.md) only"
	root := writeTree(t, tree)
	var out bytes.Buffer
	err := run([]string{"-root", root}, &out)
	if err == nil {
		t.Fatalf("README without nav links accepted:\n%s", out.String())
	}
	for _, want := range []string{"missing link to docs/ARCHITECTURE.md", "missing link to docs/SHARDING.md"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing README violation %q:\n%s", want, out.String())
		}
	}
}

// TestDocsCheckRealRepo runs the checker against this checkout, so a broken
// cross-reference fails the test suite even without the make target.
func TestDocsCheckRealRepo(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "docs", "OPERATIONS.md")); err != nil {
		t.Skipf("no operator's handbook at %s", root)
	}
	var out bytes.Buffer
	if err := run([]string{"-root", root}, &out); err != nil {
		t.Errorf("repo docs check failed: %v\n%s", err, out.String())
	}
}
