package server

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/workload"
)

// BenchmarkServeRepeatedStatement is one served batch statement over
// loopback TCP, the hotset_read shape over 5 000 cars. "hit" repeats one
// text, answered with its retained frames after its second sighting;
// "miss" cycles through more distinct texts than the parse cache holds,
// so every arrival is a first sighting — parsed, executed (a result-cache
// hit) and encoded. B/op and allocs/op count both ends of the connection,
// the client's decode included.
func BenchmarkServeRepeatedStatement(b *testing.B) {
	srv := New(psql.Catalog{"car": relation.Table(workload.Cars(5000, 20020820))}, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := shutdownCtx()
		defer cancel()
		srv.Shutdown(ctx)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	texts := make([]string, parseCacheCap+parseCacheCap/2)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT oid FROM car PREFERRING price AROUND %d AND HIGHEST(horsepower)", 12000+i*100)
		if _, err := c.Query(texts[i]); err != nil { // result-cache priming
			b.Fatal(err)
		}
	}
	for _, leg := range []struct {
		name string
		text func(i int) string
	}{
		{"hit", func(int) string { return texts[0] }},
		{"miss", func(i int) string { return texts[i%len(texts)] }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(leg.text(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
