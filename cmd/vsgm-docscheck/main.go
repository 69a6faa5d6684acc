// Command vsgm-docscheck is the documentation gate run by `make docs-check`:
//
//   - every intra-repo link in the markdown files must resolve to a file
//     that exists (http/https/mailto links and pure #anchors are skipped);
//   - every public flag of cmd/vsgm-live, cmd/vsgm-soak, cmd/vsgm-fsck,
//     cmd/vsgm-kv, and cmd/vsgm-bench must be documented in
//     docs/OPERATIONS.md (as `-flagname`), and every flag-table row there
//     must name a flag one of those binaries defines, so the operator's
//     handbook can neither fall behind the binaries nor outlive a flag;
//   - the vsgm_* metric catalogue in docs/OPERATIONS.md and the metric
//     names registered in code must agree in BOTH directions: every metric
//     literal in non-test Go code must be documented (verbatim, or covered
//     by a documented family prefix ending in an underscore), and every
//     metric the handbook names must exist in code;
//   - docs/ARCHITECTURE.md must mention every internal/ package and cmd/
//     binary, so the map of the repo cannot rot as packages are added;
//   - README.md must link the architecture and sharding docs.
//
// It prints one line per violation and exits non-zero if any were found.
//
// Usage:
//
//	vsgm-docscheck            # check the repo rooted at the working directory
//	vsgm-docscheck -root dir  # check another checkout
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-docscheck:", err)
		os.Exit(1)
	}
}

// mdLink matches [text](target) while ignoring images by stripping the
// leading ! separately; targets with spaces are not used in this repo.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// flagDef matches the fs.Type("name", ...) flag definitions in a main.go.
var flagDef = regexp.MustCompile(`fs\.(?:Bool|Int|Int64|String|Duration|Float64)\(\s*"([^"]+)"`)

// metricLit matches quoted vsgm_* string literals in Go source. A literal
// with a trailing underscore is a family prefix used for filtering, not a
// registered metric.
var metricLit = regexp.MustCompile(`"(vsgm_[a-z0-9_]+)"`)

// metricTok matches vsgm_* tokens in markdown, including family prefixes.
var metricTok = regexp.MustCompile(`vsgm_[a-z0-9_]*`)

// flagRow matches a markdown table row whose first cell is one `-flag`.
var flagRow = regexp.MustCompile("(?m)^\\|\\s*`-([a-z0-9-]+)`\\s*\\|")

// opsBinaries are the binaries whose public flags docs/OPERATIONS.md must
// cover.
var opsBinaries = []string{"vsgm-live", "vsgm-soak", "vsgm-fsck", "vsgm-kv", "vsgm-bench"}

func run(args []string, out io.Writer) error {
	fsFlags := flag.NewFlagSet("vsgm-docscheck", flag.ContinueOnError)
	root := fsFlags.String("root", ".", "repository root to check")
	if err := fsFlags.Parse(args); err != nil {
		return err
	}

	mds, err := markdownFiles(*root)
	if err != nil {
		return err
	}
	var violations []string

	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(*root, md)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if skipLink(target) {
				continue
			}
			// Strip an anchor suffix; the file part must still exist.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				violations = append(violations, fmt.Sprintf("%s: broken link %q", rel, m[1]))
			}
		}
	}

	// The operator's handbook must cover every public flag of the operator-
	// facing binaries, and its flag tables must name no other.
	opsPath := filepath.Join(*root, "docs", "OPERATIONS.md")
	ops, err := os.ReadFile(opsPath)
	if err != nil {
		return fmt.Errorf("operator's handbook: %w", err)
	}
	defined := map[string]bool{}
	for _, bin := range opsBinaries {
		binMain, err := os.ReadFile(filepath.Join(*root, "cmd", bin, "main.go"))
		if err != nil {
			return err
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(binMain), -1) {
			name := m[1]
			defined[name] = true
			if !strings.Contains(string(ops), "`-"+name+"`") {
				violations = append(violations,
					fmt.Sprintf("docs/OPERATIONS.md: %s flag -%s is undocumented", bin, name))
			}
		}
	}

	for _, m := range flagRow.FindAllStringSubmatch(string(ops), -1) {
		if !defined[m[1]] {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: flag -%s is documented but no binary defines it", m[1]))
		}
	}

	violations = append(violations, checkMetrics(*root, string(ops))...)
	violations = append(violations, checkArchitecture(*root)...)
	violations = append(violations, checkReadmeLinks(*root)...)

	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(out, v)
		}
		return fmt.Errorf("%d documentation violation(s)", len(violations))
	}
	fmt.Fprintf(out, "docs-check: %d markdown files, all links resolve, all %s flags documented both ways, metric catalogue bidirectionally consistent, architecture map complete\n",
		len(mds), strings.Join(opsBinaries, ", "))
	return nil
}

// checkMetrics verifies the vsgm_* metric catalogue in both directions:
// code metric -> documented (verbatim or by a documented family prefix),
// and documented metric -> exists in code (a documented family prefix must
// cover at least one code metric).
func checkMetrics(root, ops string) []string {
	metrics, err := codeMetrics(root)
	if err != nil {
		return []string{fmt.Sprintf("metric scan: %v", err)}
	}

	docTokens := map[string]bool{}
	for _, t := range metricTok.FindAllString(ops, -1) {
		docTokens[t] = true
	}
	var docFamilies []string
	for t := range docTokens {
		// The bare "vsgm_" namespace prefix appears in prose ("all metrics
		// are prefixed vsgm_"); it covers nothing, or the check is vacuous.
		if strings.HasSuffix(t, "_") && t != "vsgm_" {
			docFamilies = append(docFamilies, t)
		}
	}

	var violations []string
	for m := range metrics {
		if docTokens[m] {
			continue
		}
		covered := false
		for _, fam := range docFamilies {
			if strings.HasPrefix(m, fam) {
				covered = true
				break
			}
		}
		if !covered {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: metric %s exists in code but is undocumented", m))
		}
	}
	for t := range docTokens {
		if t == "vsgm_" {
			continue
		}
		if strings.HasSuffix(t, "_") {
			matched := false
			for m := range metrics {
				if strings.HasPrefix(m, t) {
					matched = true
					break
				}
			}
			if !matched {
				violations = append(violations,
					fmt.Sprintf("docs/OPERATIONS.md: metric family %s* matches nothing in code", t))
			}
			continue
		}
		if !metrics[t] {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: metric %s is documented but does not exist in code", t))
		}
	}
	return violations
}

// codeMetrics collects every vsgm_* metric-name literal from non-test Go
// files under internal/ and cmd/. Literals with a trailing underscore are
// family prefixes (used for filtering), not metrics.
func codeMetrics(root string) (map[string]bool, error) {
	metrics := map[string]bool{}
	for _, dir := range []string{"internal", "cmd"} {
		base := filepath.Join(root, dir)
		if _, err := os.Stat(base); err != nil {
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricLit.FindAllStringSubmatch(string(data), -1) {
				if strings.HasSuffix(m[1], "_") {
					continue
				}
				metrics[m[1]] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return metrics, nil
}

// checkArchitecture verifies docs/ARCHITECTURE.md names every internal/
// package and cmd/ binary.
func checkArchitecture(root string) []string {
	arch, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		return []string{fmt.Sprintf("docs/ARCHITECTURE.md: %v", err)}
	}
	var violations []string
	for _, dir := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			want := dir + "/" + e.Name()
			if !strings.Contains(string(arch), want) {
				violations = append(violations,
					fmt.Sprintf("docs/ARCHITECTURE.md: %s is not mentioned", want))
			}
		}
	}
	return violations
}

// checkReadmeLinks verifies the README links the navigability docs.
func checkReadmeLinks(root string) []string {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []string{fmt.Sprintf("README.md: %v", err)}
	}
	var violations []string
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/SHARDING.md"} {
		if !strings.Contains(string(readme), want) {
			violations = append(violations,
				fmt.Sprintf("README.md: missing link to %s", want))
		}
	}
	return violations
}

// markdownFiles lists every tracked-looking .md file under root, skipping
// vendor-ish and hidden directories.
func markdownFiles(root string) ([]string, error) {
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	sort.Strings(mds)
	return mds, err
}

// skipLink reports whether a link target is outside this checker's remit:
// external URLs, mail links, and in-page anchors.
func skipLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}
