package wfadvice_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Line budgets of the two prose documents: README is what a user runs and
// what the paper's tables show, DESIGN one section per package.
const (
	readmeMaxLines = 480
	designMaxLines = 600
)

var (
	// goRunCmd matches a README command line that runs a CLI from source;
	// its arguments end where a pipe, redirect, background or comment
	// begins.
	goRunCmd = regexp.MustCompile(`go run (?:-race )?\./cmd/(efd-[a-z]+)([^|&;>#]*)`)
	// usageLine matches a usage line of a CLI's package comment, an
	// indented command or the continuation of the one before it, with the
	// same end to its arguments.
	usageLine = regexp.MustCompile(`^//\t(efd-[a-z]+)?\s*([^|&;>#]*)`)
	// cmdFlag matches a flag word on such a line, bracketed when optional.
	cmdFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z-]*)`)
	// flagDecl matches a flag declaration in a CLI's main.go.
	flagDecl = regexp.MustCompile(`flag\.\w+\("([a-z-]+)"`)
	// history matches a pointer into the change log, which the documents
	// leave to CHANGES.md.
	history = regexp.MustCompile(`\b(?:PR|ISSUE) \d+`)
)

// TestDocs holds README, DESIGN and the CLIs' package comments to what
// they promise: every flag a README command or a usage line passes to a CLI
// is one the CLI declares, both documents stay within their line budgets,
// and neither narrates change history.
func TestDocs(t *testing.T) {
	readme := readDoc(t, "README.md")
	design := readDoc(t, "DESIGN.md")

	declared := map[string]map[string]bool{} // CLI → the flags it declares
	checkFlags := func(where, bin, args, line string) {
		if declared[bin] == nil {
			declared[bin] = map[string]bool{}
			for _, d := range flagDecl.FindAllStringSubmatch(readDoc(t, "cmd/"+bin+"/main.go"), -1) {
				declared[bin][d[1]] = true
			}
		}
		for _, f := range cmdFlag.FindAllStringSubmatch(args, -1) {
			if !declared[bin][f[1]] {
				t.Errorf("%s runs %s with -%s, which cmd/%s/main.go does not declare: %s", where, bin, f[1], bin, strings.TrimSpace(line))
			}
		}
	}
	commands := 0
	// A command continued with a trailing backslash is one line here.
	for _, line := range strings.Split(strings.ReplaceAll(readme, "\\\n", " "), "\n") {
		if m := goRunCmd.FindStringSubmatch(line); m != nil {
			commands++
			checkFlags("README", m[1], m[2], line)
		}
	}
	if commands == 0 {
		t.Error("README shows no go run ./cmd/... command")
	}

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	for _, path := range mains {
		doc, _, _ := strings.Cut(readDoc(t, path), "\npackage ")
		bin, usages := "", 0
		for _, line := range strings.Split(doc, "\n") {
			m := usageLine.FindStringSubmatch(line)
			if m == nil {
				bin = "" // a continuation needs the command right above it
				continue
			}
			if m[1] != "" {
				bin = m[1]
				usages++
			}
			if bin != "" {
				checkFlags(path, bin, m[2], line)
			}
		}
		if usages == 0 {
			t.Errorf("%s shows no usage line", path)
		}
	}

	for _, d := range []struct {
		name, text string
		max        int
	}{
		{"README.md", readme, readmeMaxLines},
		{"DESIGN.md", design, designMaxLines},
	} {
		if n := strings.Count(d.text, "\n"); n > d.max {
			t.Errorf("%s is %d lines, over its budget of %d", d.name, n, d.max)
		}
		for i, line := range strings.Split(d.text, "\n") {
			if m := history.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q: change history belongs in CHANGES.md", d.name, i+1, m)
			}
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
