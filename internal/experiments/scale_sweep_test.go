package experiments

import "testing"

func TestScaleSweepHelpers(t *testing.T) {
	if got := scaleSweepSizes(Quick); len(got) == 0 || got[len(got)-1] >= 1000 {
		t.Fatalf("quick sweep sizes = %v", got)
	}
	full := scaleSweepSizes(Full)
	if len(full) == 0 || full[len(full)-1] != 10000 {
		t.Fatalf("full sweep sizes = %v", full)
	}
	for i := 1; i < len(full); i++ {
		if full[i] <= full[i-1] {
			t.Fatalf("sweep sizes not ascending: %v", full)
		}
	}
}

// TestScaleSweepRecordsQuick runs the quick-scale sweep end to end:
// every size yields one record with a positive per-epoch wall-clock,
// and the peak-RSS column is populated on platforms with /proc.
func TestScaleSweepRecordsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still simulates two overlays")
	}
	fig, recs, err := ScaleSweepRecords(Quick)
	if err != nil {
		t.Fatal(err)
	}
	sizes := scaleSweepSizes(Quick)
	if len(recs) != len(sizes) {
		t.Fatalf("%d records for %d sizes", len(recs), len(sizes))
	}
	for i, rec := range recs {
		if rec.NsPerOp <= 0 || rec.N <= 0 {
			t.Fatalf("record %d degenerate: %+v", i, rec)
		}
	}
	if len(fig.Series) == 0 {
		t.Fatal("sweep figure has no series")
	}
	if rss := peakRSSBytes(); rss > 0 {
		for i, rec := range recs {
			if rec.PeakRSSBytes <= 0 {
				t.Fatalf("record %d has no peak RSS on a /proc platform: %+v", i, rec)
			}
		}
	}
}
