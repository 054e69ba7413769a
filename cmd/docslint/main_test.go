package main

import (
	"slices"
	"strings"
	"testing"
)

// TestChangesViolations checks the CHANGES.md cap: entries numbered
// firstCappedEntry or later are one paragraph of at most maxEntryWords
// words; earlier ones, however long, are grandfathered.
func TestChangesViolations(t *testing.T) {
	words := func(n int) string { return strings.Repeat("w ", n) }
	for _, c := range []struct {
		name, text string
		want       []string
	}{
		{"grandfathered", "PR 1: " + words(400) + "\nPR 30: a\n\nmore of 30\n", nil},
		{"at the cap", "PR 30: old\n\nPR 31: " + words(148) + "\n", nil},
		{"over the cap", "PR 30: old\n\nPR 31: " + words(149) + "\n",
			[]string{"CHANGES.md:3: entry 31 has 151 words, cap 150"}},
		{"wrapped lines are one paragraph", "PR 32: a b\nc d\n\nPR 33: e\n", nil},
		{"second paragraph", "PR 32: a\n\nmore\n\nPR 33: b\n",
			[]string{"CHANGES.md:1: entry 32 has 2 paragraphs, cap 1"}},
		{"follow-up entries count alone", "PR 31: " + words(100) + "\n\nPR 31 follow-up: " + words(100) + "\n", nil},
		{"mid-line mentions start nothing", "PR 31: see\nPR-style PR 29 text\n", nil},
	} {
		if got := changesViolations(c.text); !slices.Equal(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
