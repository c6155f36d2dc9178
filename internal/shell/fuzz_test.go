package shell

import (
	"testing"

	"cloudeval/internal/dataset"
)

// FuzzParse checks that Parse never panics. Unit-test scripts reach the
// parser from the dataset and over the evalcluster wire, so every byte
// string must either parse or return an error. Plain `go test` runs the
// seeds below, which makes them regression tests too; run the fuzzer
// with
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/shell
func FuzzParse(f *testing.F) {
	for _, p := range dataset.Generate() {
		f.Add(p.UnitTest)
	}
	for _, src := range []string{
		// Compounds cut off before their closing keyword.
		`for`, `for x`, `for x in`, `while`, `if true; then`,
		`case`, `{`, `(`, `f() {`,
		// A backslash with nothing left to escape, bare and quoted.
		`\`, `echo \`, `"\`, "`\\",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src)
	})
}
