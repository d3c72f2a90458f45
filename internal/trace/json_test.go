package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Periods != tr.Periods {
		t.Fatalf("periods %d", got.Periods)
	}
	if got.Flavors.K() != tr.Flavors.K() {
		t.Fatalf("flavors %d", got.Flavors.K())
	}
	if got.Flavors.Defs[1].Name != "large" || got.Flavors.Defs[1].CPU != 4 {
		t.Fatalf("catalog lost: %+v", got.Flavors.Defs[1])
	}
	for i := range tr.VMs {
		if got.VMs[i] != tr.VMs[i] {
			t.Fatalf("VM %d: %+v vs %+v", i, got.VMs[i], tr.VMs[i])
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("expected version error")
	}
	// Invalid trace content (flavor out of range).
	bad := `{"version":1,"periods":2,"flavors":[{"Name":"a","CPU":1,"MemGB":1}],"vms":[{"id":0,"user":0,"flavor":5,"start":0,"duration_s":1}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("expected validation error")
	}
}
