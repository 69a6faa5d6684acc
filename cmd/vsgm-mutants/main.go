// Command vsgm-mutants judges the test suite with planted faults. It reads
// the committed catalogue (catalogue.json beside this file, compiled in),
// plants one mutant at a time — an exact text replacement in one file, laid
// over the tree with go test -overlay, so the checkout is never written — and
// gives every hunter the mutant names the same wall budget. A hunter is a test
// pattern in one package. It runs first on its default seed, then on fresh
// VSGM_SEED values, until a run fails or the budget is spent; a test that
// fails before the budget cuts its run counts, and a failure on a fresh seed
// counts only if the clean tree passes that seed. Each mutant is
// reported caught, naming the failing test and the seed that replays it, or
// survived; the run ends with the caught-by matrix.
//
// Usage, from anywhere in the module:
//
//	go run ./cmd/vsgm-mutants
//
// It takes no flags. Before planting anything it runs every hunter once on the
// clean tree and stops if one fails there or runs no test. It exits non-zero
// when a mutant survives every hunter it names, or when a mutant no longer
// applies: its old text does not occur exactly once in its file, or the
// planted tree does not build.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

//go:embed catalogue.json
var catalogueJSON []byte

// budget is the wall time every hunter gets against every mutant.
const budget = 20 * time.Second

// seedStride spaces the VSGM_SEED values a hunter runs under, so that the
// consecutive seeds a swarm derives from one value never overlap the next's.
const seedStride = 1 << 20

// hunter is one test pattern in one package.
type hunter struct {
	Pkg string `json:"pkg"`
	Run string `json:"run"`
}

// mutant is one planted fault: Old, which must occur exactly once in File,
// becomes New.
type mutant struct {
	Name    string   `json:"name"`
	File    string   `json:"file"`
	Old     string   `json:"old"`
	New     string   `json:"new"`
	Why     string   `json:"why"`
	Hunters []string `json:"hunters"`
}

// catalogue is catalogue.json: the hunters by name, and the mutants.
type catalogue struct {
	Hunters map[string]hunter `json:"hunters"`
	Mutants []mutant          `json:"mutants"`
}

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "vsgm-mutants takes no arguments; edit cmd/vsgm-mutants/catalogue.json instead")
		os.Exit(2)
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-mutants:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) error {
	var cat catalogue
	if err := json.Unmarshal(catalogueJSON, &cat); err != nil {
		return fmt.Errorf("catalogue: %w", err)
	}
	b, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return fmt.Errorf("go list -m: %w", err)
	}
	root := strings.TrimSpace(string(b))
	tmp, err := os.MkdirTemp("", "vsgm-mutants-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	names := make([]string, 0, len(cat.Hunters))
	for name := range cat.Hunters {
		names = append(names, name)
	}
	slices.Sort(names)

	// The clean tree: every hunter must pass, or it would "catch" every mutant.
	fmt.Fprintf(out, "clean tree (budget %v per hunter per mutant)\n", budget)
	clean := make(map[string]string) // package → its clean test binary
	for _, name := range names {
		h := cat.Hunters[name]
		bin, err := build(root, filepath.Join(tmp, "clean"), h.Pkg, "")
		if err != nil {
			return err
		}
		clean[h.Pkg] = bin
		start := time.Now()
		res := runOnce(root, bin, h, "", budget, "-test.v")
		if res.failed {
			return fmt.Errorf("hunter %s fails on the clean tree:\n%s", name, res.output)
		}
		if !strings.Contains(res.output, "=== RUN") {
			// A pattern that matches no test passes, and every mutant would
			// survive it unnoticed.
			return fmt.Errorf("hunter %s runs no test: no test in %s matches %q", name, h.Pkg, h.Run)
		}
		fmt.Fprintf(out, "  %-11s passes in %.2f s\n", name, time.Since(start).Seconds())
	}

	var table strings.Builder
	fmt.Fprintf(&table, "| mutant | file | %s |\n|---|---|%s\n", strings.Join(names, " | "), strings.Repeat("---|", len(names)))
	survivors := 0
	for _, m := range cat.Mutants {
		fmt.Fprintf(out, "%s (%s): %s\n", m.Name, m.File, m.Why)
		dir := filepath.Join(tmp, m.Name)
		overlay, err := plant(root, dir, m)
		if err != nil {
			return fmt.Errorf("mutant %s: %w", m.Name, err)
		}
		cells := make(map[string]string)
		caught := false
		for _, name := range m.Hunters {
			h, ok := cat.Hunters[name]
			if !ok {
				return fmt.Errorf("mutant %s names unknown hunter %q", m.Name, name)
			}
			bin, err := build(root, dir, h.Pkg, overlay)
			if err != nil {
				return fmt.Errorf("mutant %s: %w", m.Name, err)
			}
			got, cell := hunt(out, root, bin, clean[h.Pkg], h)
			caught = caught || got
			cells[name] = cell
			fmt.Fprintf(out, "  %-11s %s\n", name, cell)
		}
		if !caught {
			survivors++
		}
		fmt.Fprintf(&table, "| %s | %s |", m.Name, m.File)
		for _, name := range names {
			cell, ok := cells[name]
			if !ok {
				cell = "—"
			}
			fmt.Fprintf(&table, " %s |", cell)
		}
		table.WriteString("\n")
	}
	fmt.Fprintf(out, "\n%s", table.String())
	if survivors > 0 {
		return fmt.Errorf("%d of %d mutants survived every hunter they name", survivors, len(cat.Mutants))
	}
	fmt.Fprintf(out, "all %d mutants caught\n", len(cat.Mutants))
	return nil
}

// plant writes m's mutated file and an overlay that lays it over the tree,
// both under dir, and returns the overlay's path.
func plant(root, dir string, m mutant) (string, error) {
	path := filepath.Join(root, filepath.FromSlash(m.File))
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if n := bytes.Count(src, []byte(m.Old)); m.Old == "" || n != 1 {
		return "", fmt.Errorf("old text occurs %d times in %s, want exactly once", n, m.File)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mutated := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		return "", err
	}
	file := filepath.Join(dir, "overlay.json")
	return file, os.WriteFile(file, overlay, 0o644)
}

// build compiles pkg's test binary into dir, with the overlay when one is
// given, once per directory and package.
func build(root, dir, pkg, overlay string) (string, error) {
	bin := filepath.Join(dir, strings.NewReplacer("/", "_", ".", "_").Replace(pkg)+".test")
	if _, err := os.Stat(bin); err == nil {
		return bin, nil
	}
	args := []string{"test", "-c", "-o", bin}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go test -c %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// hunt runs h's binary on its default seed, then on fresh seeds, until a run
// fails or the budget is spent, and reports whether it caught the mutant and
// the verdict's matrix cell. A failure on a fresh seed counts only if the
// clean binary passes that seed: one that fails on the clean tree too is a
// fault of the tree, reported and skipped.
func hunt(out io.Writer, root, bin, cleanBin string, h hunter) (bool, string) {
	start := time.Now()
	runs := 0
	for left := budget; left > 0; left = budget - time.Since(start) {
		seed := ""
		if runs > 0 {
			seed = strconv.Itoa(runs * seedStride)
		}
		res := runOnce(root, bin, h, seed, left)
		if res.killed {
			break
		}
		runs++
		if res.failed && seed != "" && runOnce(root, cleanBin, h, seed, budget).failed {
			fmt.Fprintf(out, "  note: %s fails on the clean tree too at VSGM_SEED=%s\n", res.test, seed)
			continue
		}
		if res.failed {
			replay := "default seed"
			if seed != "" {
				replay = "VSGM_SEED=" + seed
			}
			return true, fmt.Sprintf("caught: %s (%s, run %d, %.1f s)", res.test, replay, runs, time.Since(start).Seconds())
		}
	}
	return false, fmt.Sprintf("survived (%d runs, %.0f s)", runs, time.Since(start).Seconds())
}

// result is one run of a hunter's binary.
type result struct {
	failed bool   // a test failed or panicked
	killed bool   // the budget ran out before the run finished, and no test had failed
	test   string // the first failing test the output names
	output string
}

var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// runOnce runs h's tests in bin once, in the package's directory, under
// VSGM_SEED=seed (unset when seed is ""), for at most limit, with any extra
// test flags.
func runOnce(root, bin string, h hunter, seed string, limit time.Duration, flags ...string) result {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-test.run", "^(" + h.Run + ")$", "-test.count=1"}, flags...)...)
	cmd.Dir = filepath.Join(root, filepath.FromSlash(h.Pkg))
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "VSGM_SEED=") })
	if seed != "" {
		cmd.Env = append(cmd.Env, "VSGM_SEED="+seed)
	}
	out, err := cmd.CombinedOutput()
	res := result{output: string(out)}
	m := failLine.FindStringSubmatch(res.output)
	switch {
	case m != nil:
		// A test that failed before the budget cut the run still failed.
		res.failed, res.test = true, m[1]
	case ctx.Err() != nil:
		res.killed = true
	case err != nil:
		res.failed, res.test = true, "(no test named)"
	}
	return res
}
