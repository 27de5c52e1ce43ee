package ids

import "testing"

func TestStringAndOrder(t *testing.T) {
	if C(0).String() != "p1" || S(2).String() != "q3" {
		t.Fatalf("String: %s %s", C(0), S(2))
	}
	if !C(5).Less(S(0)) {
		t.Fatal("C-processes must order before S-processes")
	}
	if !C(0).Less(C(1)) || C(1).Less(C(0)) {
		t.Fatal("index order wrong")
	}
	if !C(0).IsC() || !S(0).IsS() || C(0).IsS() {
		t.Fatal("kind predicates wrong")
	}
}
