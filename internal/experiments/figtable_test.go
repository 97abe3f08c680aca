package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestFigureSelectors pins the figure table's -fig mapping: every
// paper figure number and static-table name selects exactly one row, a
// repeated or combined selection keeps table order, and an unknown
// name is an error that names the valid ones.
func TestFigureSelectors(t *testing.T) {
	for num, want := range map[string]string{
		"1": "1", "3": "3", "4": "4", "5": "56", "6": "56",
		"7": "energy", "8": "energy", "9": "energy", "10": "energy", "11": "energy", "12": "energy",
		"table1": "table1", "delays": "delays", "tables456": "tables456",
	} {
		got, err := SelectFigures([]string{num})
		if err != nil || len(got) != 1 || got[0].Name != want {
			t.Errorf("-fig %s selected %v (err %v), want the single row %q", num, figureNames(got), err, want)
		}
	}
	got, err := SelectFigures([]string{"table1", "12", "5", "6", "1", "5"})
	if err != nil || !reflect.DeepEqual(figureNames(got), []string{"1", "56", "energy", "table1"}) {
		t.Errorf("combined selection gave %v (err %v), want [1 56 energy table1]", figureNames(got), err)
	}
	if table1, _ := LookupFigure("table1"); len(FigureSpecs([]Figure{table1}, []string{"gzip"}, 1000)) != 0 {
		t.Error("the static table1 row enumerates simulations")
	}
	if got, err := SelectFigures(nil); err != nil || len(got) != 0 {
		t.Errorf("empty selection gave %v (err %v), want none", figureNames(got), err)
	}
	for _, bad := range []string{"2", "13", "56", "energy", "table4", "models", ""} {
		_, err := SelectFigures([]string{"1", bad})
		if err == nil || !strings.Contains(err.Error(), "valid: 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, table1, delays, tables456)") {
			t.Errorf("-fig %q: error %v does not reject it with the valid numbers", bad, err)
		}
	}
	if names := FigureNames(); !reflect.DeepEqual(names, figureNames(Figures())) {
		t.Errorf("FigureNames %v disagrees with the table %v", names, figureNames(Figures()))
	}
	for _, f := range Figures() {
		if got, ok := LookupFigure(f.Name); !ok || got.Name != f.Name {
			t.Errorf("LookupFigure(%q) missed its row", f.Name)
		}
	}
	if _, ok := LookupFigure("2"); ok {
		t.Error("LookupFigure found a figure the paper's evaluation does not have")
	}
}

func figureNames(fs []Figure) []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}
