package sqlparse_test

import (
	"testing"

	"qres/internal/datagen"
	"qres/internal/sqlparse"
	"qres/internal/testdb"
)

// FuzzParseAndCompile feeds arbitrary text to the SQL front door, compiled
// against the paper's running example, a tiny TPC-H database and a tiny
// NELL knowledge base: it must never panic, and a query that compiles must
// yield a plan.
func FuzzParseAndCompile(f *testing.F) {
	catalogs := []sqlparse.Catalog{
		testdb.PaperUncertainDB().Data(),
		datagen.TPCH(datagen.TPCHConfig{SF: 0.001, Seed: 1, Lean: true}).Data(),
		datagen.NELL(datagen.NELLConfig{Athletes: 10, Seed: 1}).Data(),
	}
	f.Add(paperSQL)
	for _, queries := range []map[string]string{datagen.TPCHQueries(), datagen.NELLQueries()} {
		for _, sql := range queries {
			f.Add(sql)
		}
	}
	f.Add("SELECT * FROM Roles ORDER BY Member DESC LIMIT 2")
	f.Add("SELECT Member FROM Roles UNION SELECT Alumni FROM Education")
	f.Add("SELECT a.x FROM Roles AS a WHERE a.Role LIKE 'f%' AND (a.y = 1 OR NOT a.z <> 'q')")
	f.Add("SELECT 'unterminated FROM Roles")
	f.Add("SELECT year(2017.01.01) FROM")
	f.Fuzz(func(t *testing.T, sql string) {
		for _, cat := range catalogs {
			plan, err := sqlparse.ParseAndCompile(sql, cat)
			if err == nil && plan == nil {
				t.Fatalf("ParseAndCompile(%q) returned neither a plan nor an error", sql)
			}
		}
	})
}
