package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"ballarus/internal/cluster"
	"ballarus/internal/service"
	"ballarus/internal/tenant"
)

// TestMetricCatalog holds docs/OBSERVABILITY.md's metric catalog and
// the code to each other. It scrapes every family a replica can
// register (a durable, tenanted service with blserve's trace archive
// and HTTP families on its registry) and every family a gateway
// registers. Each scraped family must be named in the catalog, and each
// family in the first column of a catalog table must be scraped.
func TestMetricCatalog(t *testing.T) {
	svc := service.New(
		service.WithDurableStore(t.TempDir()),
		service.WithTenants(tenant.NewRegistry(tenant.Config{})))
	defer svc.Close()
	replica := scrapeFamilies(t, newServer(svc).handler(false))

	g, err := cluster.New(cluster.Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gateway := scrapeFamilies(t, g.Handler())

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	named, tabled := catalogNames(t, string(doc))
	for _, fams := range []map[string]string{replica, gateway} {
		for fam := range fams {
			if !named[fam] && !coveredByPrefix(fam, named) {
				t.Errorf("family %s is registered but missing from the OBSERVABILITY.md catalog", fam)
			}
		}
	}
	registered := func(fam string) bool {
		for _, fams := range []map[string]string{replica, gateway} {
			if _, ok := fams[fam]; ok {
				return true
			}
			// A histogram's exemplar family renders once a traced
			// observation lands in it.
			if base, ok := strings.CutSuffix(fam, "_exemplar"); ok && fams[base] == "histogram" {
				return true
			}
			if prefix, ok := strings.CutSuffix(fam, "*"); ok {
				for f := range fams {
					if strings.HasPrefix(f, prefix) {
						return true
					}
				}
			}
		}
		return false
	}
	for _, fam := range tabled {
		if !registered(fam) {
			t.Errorf("the OBSERVABILITY.md catalog lists %s, which nothing registers", fam)
		}
	}
}

// scrapeFamilies GETs /metrics from h after one request has passed
// through it, and returns each family's type keyed by its name without
// the ballarus_ prefix.
func scrapeFamilies(t *testing.T, h http.Handler) map[string]string {
	t.Helper()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams := map[string]string{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[strings.TrimPrefix(f[2], "ballarus_")] = f[3]
		}
	}
	if len(fams) == 0 {
		t.Fatal("scrape exposed no families")
	}
	return fams
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	familyName = regexp.MustCompile(`^(?:ballarus_)?([a-z][a-z0-9_]*\*?)(?:\{.*\})?$`)
)

// catalogNames reads the "## Metric catalog" section: every family
// named in backticks (with or without ballarus_, optionally followed by
// {labels}), and the families in the first column of its tables.
func catalogNames(t *testing.T, doc string) (map[string]bool, []string) {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## Metric catalog\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"## Metric catalog\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	var tabled []string
	for _, line := range strings.Split(section, "\n") {
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			if f := familyName.FindStringSubmatch(m[1]); f != nil {
				named[f[1]] = true
			}
		}
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			if f := familyName.FindStringSubmatch(m[1]); f != nil {
				tabled = append(tabled, f[1])
			}
		}
	}
	if len(tabled) == 0 {
		t.Fatal("the metric catalog has no table rows")
	}
	return named, tabled
}

// coveredByPrefix reports whether a catalog pattern such as
// `recovered_*` names fam.
func coveredByPrefix(fam string, named map[string]bool) bool {
	for n := range named {
		if prefix, ok := strings.CutSuffix(n, "*"); ok && strings.HasPrefix(fam, prefix) {
			return true
		}
	}
	return false
}
