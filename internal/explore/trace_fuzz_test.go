package explore_test

import (
	"reflect"
	"testing"

	"wfadvice/internal/explore"
)

// smokeWitness is the witness trace CI's explore smoke writes
// (efd-explore -task strongrename -n 2 -j 2 -depth 12 -trace-out).
const smokeWitness = `efd-trace v1
spec strongrename
meta idle-s 0
meta j 2
meta n 2
meta task strongrename
verdict p2 decided name 3 outside 1..2
steps 11
0 p1 write R/0 {0 1 true}
1 p2 write R/1 {1 1 true}
2 p2 read R/0 {0 1 true}
3 p2 read R/1 {1 1 true}
4 p2 write R/1 {1 3 true}
5 p2 read R/0 {0 1 true}
6 p2 read R/1 {1 3 true}
7 p2 write R/1 {1 3 false}
8 p2 read R/0 {0 1 true}
9 p2 read R/1 {1 3 false}
10 p2 decide - 3
end
`

// FuzzParseTrace holds the trace parser to two properties on arbitrary
// input: it never panics, and whatever it accepts survives the trip through
// Format — the text re-parses to an equal trace and formats to the same
// text again. The trip is exact: a trace without a verdict line parses with
// the "ok" verdict Format writes for it.
func FuzzParseTrace(f *testing.F) {
	for _, s := range []string{
		smokeWitness,
		"efd-trace v1\nend\n",
		"efd-trace v1\nspec\nend\n",
		"  efd-trace v1\r\n# comment\n\nspec  x y \nmeta k  v w\nsteps 01\n7 p01 read - \nend\n\n",
		"efd-trace v1\n0 q3 decide  a b\nend",
		"efd-trace v1\nsteps 2\n0 p1 write k 1\nend\n",
		"efd-trace v1\n0 x9 write k 1\nend\n",
		"efd-trace v1\nmeta k\nend\n",
		"efd-trace v1\nend\nspec late\n",
		"efd-trace v2\nend\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := explore.ParseTrace(text)
		if err != nil {
			return
		}
		out := tr.Format()
		back, err := explore.ParseTrace(out)
		if err != nil {
			t.Fatalf("accepted %q, but its Format does not parse: %v\n%s", text, err, out)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("accepted %q, round trip differs:\n%#v\n%#v", text, tr, back)
		}
		if again := back.Format(); again != out {
			t.Fatalf("accepted %q, Format is not a fixed point:\n%s\n%s", text, out, again)
		}
	})
}
