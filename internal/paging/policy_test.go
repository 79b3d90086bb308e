package paging

import (
	"strings"
	"testing"
)

// TestNewPolicyUnknownName: the one policy constructor rejects an unknown
// name and lists the registry, so a -policy typo is self-diagnosing.
func TestNewPolicyUnknownName(t *testing.T) {
	_, err := NewReplacementPolicy("belady-crystal-ball", 1)
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %q", err, name)
		}
	}
}
