package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mining"
	"repro/internal/pref"
	"repro/internal/prefrepo"
	"repro/internal/psql"
	"repro/internal/pterm"
	"repro/internal/pxpath"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Integration tests: full pipelines across module boundaries, the flows a
// downstream adopter would build.

// TestCSVToPreferenceSQLPipeline loads a relation from CSV and queries it
// end to end through Preference SQL, including EXPLAIN.
func TestCSVToPreferenceSQLPipeline(t *testing.T) {
	csv := `oid,make,color,price,mileage
1,Opel,red,9800,120000
2,Opel,white,10400,60000
3,BMW,red,24500,30000
4,VW,blue,11200,45000
5,VW,gray,8900,95000
`
	rel, err := relation.ReadCSV("car", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	cat := psql.Catalog{"car": rel}
	res, err := psql.Run(`SELECT oid FROM car
		PREFERRING color <> 'gray' PRIOR TO LOWEST(price)
		ORDER BY oid`, cat, psql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Definition 9: across distinct non-gray colours nothing is ranked, so
	// the cheapest car of EACH surviving colour value remains: oids 1
	// (red, 9800 beats red 24500), 2 (white) and 4 (blue).
	var got []string
	for i := 0; i < res.Len(); i++ {
		v, _ := res.Tuple(i).Get("oid")
		got = append(got, pref.FormatValue(v))
	}
	if strings.Join(got, ",") != "1,2,4" {
		t.Fatalf("oids = %v, want [1 2 4]", got)
	}
	// The single cheapest non-gray car needs a CASCADE.
	res, err = psql.Run(`SELECT oid FROM car
		PREFERRING color <> 'gray' CASCADE LOWEST(price)`, cat, psql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("cascade must single out the cheapest, got %d rows", res.Len())
	}
	if v, _ := res.Tuple(0).Get("oid"); !pref.EqualValues(v, int64(1)) {
		t.Errorf("winner = %v, want oid 1", v)
	}
	plan, err := psql.Run("EXPLAIN SELECT oid FROM car PREFERRING LOWEST(price)", cat, psql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() < 3 {
		t.Error("EXPLAIN must produce a multi-step plan")
	}
}

// TestRepositoryToQueryPipeline stores preferences in the repository,
// reloads them from JSON, composes them, and evaluates under BMO — the
// §7 "persistent preference repository" flow.
func TestRepositoryToQueryPipeline(t *testing.T) {
	repo := prefrepo.New()
	if err := repo.Put("buyer", "", "alice",
		pref.Pareto(pref.LOWEST("price"), pref.NEG("color", "gray"))); err != nil {
		t.Fatal(err)
	}
	if err := repo.PutTerm("seller", "", "bob", "HIGHEST(commission)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := prefrepo.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	deal, err := reloaded.Compose("pareto", "buyer", "seller")
	if err != nil {
		t.Fatal(err)
	}
	cars := workload.Cars(500, 17)
	table := core.BMOWith(deal, cars, core.BNL)
	if table.Len() == 0 || table.Len() == cars.Len() {
		t.Fatalf("negotiation table = %d of %d rows", table.Len(), cars.Len())
	}
	// The frontier is fully unranked — pure compromise territory.
	for i := 0; i < table.Len() && i < 10; i++ {
		for j := i + 1; j < table.Len() && j < 10; j++ {
			if !pref.Indifferent(deal, table.Tuple(i), table.Tuple(j)) {
				t.Fatal("BMO results must be mutually unranked")
			}
		}
	}
}

// TestMiningToQueryPipeline mines a preference from a synthetic choice log
// and uses it to answer a BMO query — the §7 "preference mining" flow.
func TestMiningToQueryPipeline(t *testing.T) {
	cars := workload.Cars(2000, 23)
	// Simulate a user who accepts cheap red cars and rejects the rest.
	log := &mining.Log{}
	for i := 0; i < cars.Len(); i++ {
		tup := cars.Tuple(i)
		color, _ := tup.Get("color")
		price, _ := tup.Get("price")
		pn, _ := pref.Numeric(price)
		log.Observe(tup, color == "red" && pn < 15000)
	}
	mined, err := mining.Fit(log, []string{"color", "price"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The mined preference must serialize (repository-ready) …
	text, err := pterm.Marshal(mined)
	if err != nil {
		t.Fatalf("mined preference must serialize: %v", err)
	}
	if !strings.Contains(text, "POS(color, {'red'})") {
		t.Errorf("mined term = %s", text)
	}
	// … and its BMO answer must look like the accepted set.
	best := core.BMO(mined, cars)
	if best.Len() == 0 {
		t.Fatal("empty BMO result")
	}
	for i := 0; i < best.Len(); i++ {
		if c, _ := best.Tuple(i).Get("color"); c != "red" {
			t.Errorf("mined preference admitted %v", c)
		}
	}
}

// TestSQLAndXPathAgree runs the same soft constraint through Preference
// SQL over a relation and Preference XPath over the equivalent XML
// document; the BMO answers must coincide.
func TestSQLAndXPathAgree(t *testing.T) {
	rel := relation.New("car", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "mileage", Type: relation.Int},
	)).MustInsert(
		relation.Row{int64(1), int64(9800), int64(120000)},
		relation.Row{int64(2), int64(10400), int64(60000)},
		relation.Row{int64(3), int64(24500), int64(30000)},
		relation.Row{int64(4), int64(11200), int64(45000)},
	)
	sqlRes, err := psql.Run("SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY oid", psql.Catalog{"car": rel}, psql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	xml := `<CARS>
	  <CAR oid="1" price="9800" mileage="120000"/>
	  <CAR oid="2" price="10400" mileage="60000"/>
	  <CAR oid="3" price="24500" mileage="30000"/>
	  <CAR oid="4" price="11200" mileage="45000"/>
	</CARS>`
	root, err := pxpath.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := pxpath.Query(root, `/CARS/CAR #[(@price)lowest and (@mileage)lowest]#`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != sqlRes.Len() {
		t.Fatalf("SQL found %d best matches, XPath %d", sqlRes.Len(), len(nodes))
	}
	sqlOids := map[string]bool{}
	for i := 0; i < sqlRes.Len(); i++ {
		v, _ := sqlRes.Tuple(i).Get("oid")
		sqlOids[pref.FormatValue(v)] = true
	}
	for _, n := range nodes {
		oid, _ := n.Attr("oid")
		if !sqlOids[oid] {
			t.Errorf("XPath result oid=%s missing from SQL result", oid)
		}
	}
}

// TestAllEnginesOnRealisticWorkload pins cross-algorithm agreement on the
// car market at realistic scale (both passes run straight over a compiled
// form are pinned on the same workload inside internal/engine).
func TestAllEnginesOnRealisticWorkload(t *testing.T) {
	cars := workload.Cars(3000, 31)
	wish := pref.Prioritized(
		pref.NEG("color", "gray"),
		pref.ParetoAll(pref.LOWEST("price"), pref.LOWEST("mileage"), pref.HIGHEST("year")),
	)
	want := engine.BMOIndices(wish, cars, engine.Naive)
	check := func(name string, got []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, naive found %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row mismatch at %d", name, i)
			}
		}
	}
	for _, alg := range []engine.Algorithm{engine.BNL, engine.SFS, engine.Decomposition, engine.Auto} {
		check(alg.String(), engine.BMOIndices(wish, cars, alg))
	}
}

// TestTermSyntaxThroughSQLResults closes the loop term → SQL → term: a
// preference built from a stored term answers the same query as its
// Preference SQL equivalent.
func TestTermSyntaxThroughSQLResults(t *testing.T) {
	cars := workload.Cars(1000, 41)
	stored := pterm.MustParse("NEG(color, {'gray'}) & (LOWEST(price) >< LOWEST(mileage))")
	direct := core.BMOWith(stored, cars, core.BNL)
	viaSQL, err := psql.Run(
		"SELECT * FROM car PREFERRING color <> 'gray' PRIOR TO (LOWEST(price) AND LOWEST(mileage))",
		psql.Catalog{"car": cars}, psql.Options{Algorithm: engine.BNL})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() != viaSQL.Len() {
		t.Fatalf("stored term: %d rows, SQL: %d rows", direct.Len(), viaSQL.Len())
	}
}
