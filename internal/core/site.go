package core

import (
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
)

// Site and SiteSet re-export the Sec. 3 await-transformation machinery
// from internal/localspin, where it lives so that other substrates
// (e.g. the Sec. 4 barrier) can share it.
type (
	// Site is one transformed condition site; see localspin.Site.
	Site = localspin.Site
	// SiteSet is a lazily allocated family of sites.
	SiteSet = localspin.SiteSet
)

// NewSiteSet returns an empty site family on m.
func NewSiteSet(m *memsim.Machine, name memsim.Prefix) *SiteSet {
	return localspin.NewSiteSet(m, name)
}
