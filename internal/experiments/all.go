package experiments

import (
	"fmt"
	"io"
)

// Names lists the generators accepted by RunTables and the flexbench CLI.
var Names = []string{
	"table1", "table2", "table3",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
}

// RunTables executes one named generator, writing its rendered tables to
// w (if non-nil) and returning them for programmatic use (CSV export,
// assertions).
func RunTables(name string, cfg Config, w io.Writer) ([]*Table, error) {
	switch name {
	case "table1":
		t, err := Table1(cfg, w)
		return wrap(t, err)
	case "table2":
		t, err := Table2(cfg, w)
		return wrap(t, err)
	case "table3":
		t, err := Table3(cfg, w)
		return wrap(t, err)
	case "fig9":
		return Fig9(cfg, w, nil)
	case "fig10":
		t, err := Fig10(cfg, w)
		return wrap(t, err)
	case "fig11":
		return Fig11(cfg, w)
	case "fig12":
		return Fig12(cfg, w)
	case "fig13":
		return Fig13(cfg, w)
	case "fig14":
		return Fig14(cfg, w)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (choose from %v)", name, Names)
	}
}

func wrap(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
