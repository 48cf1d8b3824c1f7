// Quickstart: construct preferences, inspect better-than graphs, and pose
// BMO preference queries against an in-memory relation — the library's
// five-minute tour.
package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/relation"
)

func main() {
	// 1. A database set R: used-car offers.
	cars := relation.New("car", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.Int},
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "mileage", Type: relation.Int},
	)).MustInsert(
		relation.Row{int64(1), "red", int64(40000), int64(15000)},
		relation.Row{int64(2), "gray", int64(35000), int64(30000)},
		relation.Row{int64(3), "red", int64(20000), int64(10000)},
		relation.Row{int64(4), "blue", int64(15000), int64(35000)},
		relation.Row{int64(5), "black", int64(15000), int64(30000)},
	)
	fmt.Println("database set R:")
	fmt.Println(cars)

	// 2. Base preferences: wishes as strict partial orders.
	cheap := pref.LOWEST("price")
	fewMiles := pref.LOWEST("mileage")
	noGray := pref.NEG("color", "gray")

	// 3. Complex preferences: Pareto (⊗, equally important) and
	//    prioritized (&, ordered importance) accumulation.
	tradeoff := pref.Pareto(cheap, fewMiles)   // price ⊗ mileage
	wish := pref.Prioritized(noGray, tradeoff) // color first, then the trade-off
	fmt.Println("preference term:", wish)

	// 4. The BMO query model: σ[P](R) returns best matches only — never
	//    empty (if R isn't), never flooding.
	best := engine.BMO(wish, cars, engine.Auto)
	fmt.Println("\nσ[P](R) — best matches only:")
	fmt.Println(best)

	// 5. Visualize the better-than graph of the trade-off over R, the
	//    paper's Hasse-diagram view.
	g := pref.NewGraph(tradeoff, cars.Tuples())
	fmt.Println("better-than graph of price ⊗ mileage over R:")
	fmt.Print(g.Render())

	// 6. Unranked values are negotiation room: are offers 1 and 2 ranked?
	t1, t2 := cars.Tuple(0), cars.Tuple(1)
	fmt.Printf("\noffer 1 vs offer 2 unranked under ⊗? %v\n",
		pref.Indifferent(tradeoff, t1, t2))

	// 7. The same wish in Preference SQL, with EXPLAIN. The whole query
	//    path runs compiled: the WHERE clause binds to column vectors, the
	//    PREFERRING term to flat score vectors. Both bound forms are the
	//    statement's own, and a WHERE-scoped answer is not cached, so
	//    explaining the query after a run shows the same binds and the
	//    result cache's bypass.
	cat := psql.Catalog{"car": cars}
	query := `SELECT id, color, price, mileage FROM car
		WHERE price <= 38000
		PREFERRING color <> 'gray' PRIOR TO (LOWEST(price) AND LOWEST(mileage))`
	res, err := psql.Run(query, cat, psql.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nPreference SQL:", query)
	fmt.Println(res)
	plan, err := psql.ExplainQuery(query, cat, psql.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("EXPLAIN after one execution:")
	fmt.Print(plan)
}
