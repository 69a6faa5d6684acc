package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSelectedExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E4", "-reps", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "E4 — Forwarded copies per missing message") {
		t.Errorf("output missing the E4 table:\n%s", out.String())
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E7", "-reps", "1", "-markdown"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "### E7") {
		t.Errorf("markdown output malformed:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E42"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E1", "E12"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %s:\n%s", want, out.String())
		}
	}
}
