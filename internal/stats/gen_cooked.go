//go:build ignore

// gen_cooked writes rngcooked.go: math/rand's cooked seeding table,
// copied from the Go distribution's src/math/rand/rng.go (found through
// `go env GOROOT`) together with that file's BSD license notice. Run it
// with `go generate ./internal/stats` after a Go release changes the
// table; TestNewRandSourceMatchesMathRand pins the result to
// rand.NewSource.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		log.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(goroot)), "src", "math", "rand", "rng.go"))
	if err != nil {
		log.Fatal(err)
	}
	notice := regexp.MustCompile(`(?m)\A((?://[^\n]*\n)+)`).FindSubmatch(src)
	table := regexp.MustCompile(`(?s)rngCooked \[rngLen\]int64 = \[\.\.\.\]int64\{(.*?)\}`).FindSubmatch(src)
	if notice == nil || table == nil {
		log.Fatal("gen_cooked: rng.go no longer has the expected license header and rngCooked table")
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "// Code generated by gen_cooked.go from $(go env GOROOT)/src/math/rand/rng.go; DO NOT EDIT.\n\n")
	out.Write(notice[1])
	fmt.Fprintf(&out, "\npackage stats\n\n")
	fmt.Fprintf(&out, "// rngCooked is math/rand's cooked seeding table: seedState XORs it into\n")
	fmt.Fprintf(&out, "// the Lehmer chain exactly as rngSource.Seed does.\n")
	fmt.Fprintf(&out, "var rngCooked = rngState{%s}\n", table[1])
	code, err := format.Source(out.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("rngcooked.go", code, 0o644); err != nil {
		log.Fatal(err)
	}
}
