package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "quorum.put", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "storage.put", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "storage.put", Start: 20, End: 40},  // overlaps 2
		{ID: 4, Parent: 1, Name: "storage.put", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Name: "ring.replicas", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	if self[1] != 100-30-10 {
		t.Errorf("quorum self = %d, want 60", self[1])
	}
	if self[2] != 20 || self[5] != 7 {
		t.Errorf("leaf self times = %d, %d", self[2], self[5])
	}
	rows := layerTable(spans, func(string) int { return 2 })
	for _, r := range rows {
		if r.layer == "quorum" && (r.busyUsOp != 0.05 || r.selfUsOp != 0.03) {
			t.Errorf("quorum row = %+v", r)
		}
		if r.layer == "storage" && r.count != 3 {
			t.Errorf("storage row = %+v", r)
		}
	}
}
