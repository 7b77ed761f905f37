// Synthetic operator evidence: rDNS-style location hints and per-/24
// operator geofeeds, with configurable coverage and dishonesty.
//
// The IMC'23 paper leans on latency alone; real deployments also see
// operator-published evidence (rDNS naming conventions, RFC 8805
// geofeeds) of wildly varying quality. These generators produce that
// evidence from the simulated world's ground truth — including the
// adversarial cases the fusion engine (src/fusion/) exists to survive:
//
//   * A lying hint for a *misgeolocated* host is sampled around the host's
//     reported (bogus) location, not a random point — the lie agrees with
//     whois, so a fusion stage that trusts agreement between two wrong
//     sources gets exactly the trap the sanitisation paper warns about.
//   * Geofeeds carry per-entry staleness (previous-tenant locations) and
//     whole-feed adversaries (operators publishing convincing fiction).
//
// Everything is deterministic: each target draws from an RngStream fork
// indexed by its position in the target list, so evidence for target i is
// identical no matter how many other targets are covered. Generators also
// return per-entry ground-truth labels — for scoring only; the fusion
// engine never sees them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/geopoint.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {

/// Settings for the rDNS-style hint generator.
struct HintConfig {
  double coverage = 0.6;   ///< fraction of targets with a hint
  double lie_rate = 0.1;   ///< fraction of hints that are wrong
  double noise_km = 15.0;  ///< mean radial jitter around the hinted place
};

/// One rDNS-style hint: "this target's name decodes to `location`".
struct LocationHint {
  HostId target = kInvalidHost;
  geo::GeoPoint location;
  bool lie = false;  ///< ground truth for scoring; opaque to the engine
};

/// Generate hints for `targets`. Deterministic per target: whether target i
/// gets a hint, and what it says, depends only on `rng` and i.
std::vector<LocationHint> generate_hints(const World& world,
                                         std::span<const HostId> targets,
                                         const HintConfig& config,
                                         util::RngStream rng);

/// Settings for the geofeed generator.
struct FeedConfig {
  double coverage = 0.5;    ///< fraction of target /24s listed in some feed
  double stale_rate = 0.05; ///< honest feeds: entries left from a past tenant
  double noise_km = 8.0;    ///< mean jitter of honest entries
  int feed_count = 4;       ///< operator feeds the universe is split across
  /// The first `adversarial_feeds` feeds lie at `adversarial_lie_rate`
  /// (misgeolocated hosts get their convincing reported location; honest
  /// hosts get a random city).
  int adversarial_feeds = 0;
  double adversarial_lie_rate = 0.8;
};

/// Ground-truth label of one generated feed line (scoring only).
enum class FeedEntryTruth : std::uint8_t { Honest, Stale, Adversarial };

struct GeneratedFeedEntry {
  HostId target = kInvalidHost;
  geo::GeoPoint location;
  FeedEntryTruth truth = FeedEntryTruth::Honest;
};

/// One operator's feed: the serialized text (the fusion pipeline parses it
/// with fusion::parse_geofeed — evidence enters through the same strict
/// parser real feeds would) plus the ground-truth ledger.
struct GeneratedFeed {
  std::string source;  ///< stable operator name, e.g. "feed-2.example"
  std::string text;    ///< "prefix,country,city,lat,lon" lines + comments
  std::vector<GeneratedFeedEntry> entries;
};

/// Generate `config.feed_count` operator feeds over the covered targets
/// (target i belongs to feed i mod feed_count, covered or not).
std::vector<GeneratedFeed> generate_feeds(const World& world,
                                          std::span<const HostId> targets,
                                          const FeedConfig& config,
                                          util::RngStream rng);

}  // namespace geoloc::sim
