package client

import (
	"reflect"
	"testing"

	"samielsq/internal/experiments"
)

// TestFigureNamesFollowTable pins the endpoint names to the library's
// figure table, in the paper's order.
func TestFigureNamesFollowTable(t *testing.T) {
	var table []string
	for _, f := range experiments.Figures() {
		table = append(table, f.Name)
	}
	paper := []string{"1", "3", "4", "56", "energy", "table1", "delays", "tables456"}
	if got := FigureNames(); !reflect.DeepEqual(got, table) || !reflect.DeepEqual(got, paper) {
		t.Errorf("FigureNames() = %v, want the table %v in paper order %v", got, table, paper)
	}
}
