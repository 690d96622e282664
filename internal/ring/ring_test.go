package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = Key(fmt.Sprintf("wl-%d", i%7), fmt.Sprintf("cfg-%d", i))
	}
	return out
}

func TestOwnerDeterministicAndOrderInsensitive(t *testing.T) {
	a, err := New([]string{"n1:8471", "n2:8471", "n3:8471"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"n3:8471", "n1:8471", "n2:8471", "n2:8471"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %q depends on member-list order: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(Key(fmt.Sprintf("w%d", i), "cfg"))]++
	}
	mean := n / len(nodes)
	for _, node := range nodes {
		c := counts[node]
		if c < mean/2 || c > mean*2 {
			t.Errorf("node %s owns %d of %d keys (mean %d): ring badly unbalanced: %v",
				node, c, n, mean, counts)
		}
	}
}

// TestMinimalRemap is the consistent-hashing contract: adding one node to
// a fleet of N moves roughly 1/(N+1) of the keys and never moves a key
// between two surviving nodes.
func TestMinimalRemap(t *testing.T) {
	old, err := New([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New([]string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const n = 10000
	for i := 0; i < n; i++ {
		k := Key(fmt.Sprintf("w%d", i), "cfg")
		before, after := old.Owner(k), grown.Owner(k)
		if before != after {
			moved++
			if after != "e" {
				t.Fatalf("key %q moved between surviving nodes %q -> %q", k, before, after)
			}
		}
	}
	// Expected fraction is 1/5; accept anything under 2x that.
	if moved > 2*n/5 {
		t.Errorf("adding one node moved %d of %d keys, want ~%d", moved, n, n/5)
	}
	if moved == 0 {
		t.Error("adding a node moved no keys: new node owns nothing")
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) succeeded, want error")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Error("New with empty node name succeeded, want error")
	}
}
