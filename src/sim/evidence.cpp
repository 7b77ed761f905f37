#include "sim/evidence.h"

#include <algorithm>
#include <cstdio>

#include "geo/geodesy.h"
#include "net/ipv4.h"

namespace geoloc::sim {

namespace {

/// The hinted/fed location: the anchor point displaced by an exponential
/// radial offset — operator evidence names a place, not street coordinates.
geo::GeoPoint jitter(const geo::GeoPoint& anchor, double mean_km,
                     util::Pcg32& gen) {
  const double bearing = gen.uniform(0.0, 360.0);
  const double r = gen.exponential(mean_km);
  return geo::destination(anchor, bearing, r);
}

/// A random real city's centre — the "previous tenant" / fabricated entry.
geo::GeoPoint random_city(const World& world, util::Pcg32& gen) {
  const auto cities = world.cities();
  return world.place(cities[gen.index(cities.size())]).location;
}

/// A wrong location that is hard to refute by cross-checking registries:
/// a misgeolocated host lies *consistently* (the evidence repeats its bogus
/// reported location), an honest host's lie has to invent a place.
geo::GeoPoint lie_location(const World& world, const Host& host,
                           double noise_km, util::Pcg32& gen) {
  const geo::GeoPoint base =
      host.misgeolocated ? host.reported_location : random_city(world, gen);
  return jitter(base, noise_km, gen);
}

void append_csv_field(std::string& out, std::string_view s) {
  for (const char c : s) out.push_back(c == ',' ? ' ' : c);
}

void append_feed_line(std::string& out, const World& world, const Host& host,
                      const geo::GeoPoint& loc) {
  const Place& place = world.place(host.place);
  out += net::slash24_of(host.addr).to_string();
  out.push_back(',');
  append_csv_field(out, place.country);
  out.push_back(',');
  append_csv_field(out, place.name);
  char buf[64];
  std::snprintf(buf, sizeof buf, ",%.6f,%.6f\n", loc.lat_deg, loc.lon_deg);
  out += buf;
}

}  // namespace

std::vector<LocationHint> generate_hints(const World& world,
                                         std::span<const HostId> targets,
                                         const HintConfig& config,
                                         util::RngStream rng) {
  std::vector<LocationHint> hints;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    util::Pcg32 gen = rng.fork("hint", i).gen();
    if (!gen.chance(config.coverage)) continue;
    const Host& host = world.host(targets[i]);
    LocationHint h;
    h.target = targets[i];
    h.lie = gen.chance(config.lie_rate);
    h.location = h.lie ? lie_location(world, host, config.noise_km, gen)
                       : jitter(host.true_location, config.noise_km, gen);
    hints.push_back(h);
  }
  return hints;
}

std::vector<GeneratedFeed> generate_feeds(const World& world,
                                          std::span<const HostId> targets,
                                          const FeedConfig& config,
                                          util::RngStream rng) {
  const int n_feeds = std::max(config.feed_count, 1);
  std::vector<GeneratedFeed> feeds(static_cast<std::size_t>(n_feeds));
  for (int f = 0; f < n_feeds; ++f) {
    feeds[f].source = "feed-" + std::to_string(f) + ".example";
    feeds[f].text = "# geofeed for " + feeds[f].source +
                    "\n# prefix,country,city,lat,lon\n";
  }

  for (std::size_t i = 0; i < targets.size(); ++i) {
    util::Pcg32 gen = rng.fork("feed", i).gen();
    if (!gen.chance(config.coverage)) continue;
    // Feed membership is position-based (i mod feeds), not coverage-order
    // based, so target i's evidence never depends on its neighbours.
    GeneratedFeed& feed = feeds[i % feeds.size()];
    const bool adversarial_feed =
        static_cast<int>(&feed - feeds.data()) < config.adversarial_feeds;

    const Host& host = world.host(targets[i]);
    GeneratedFeedEntry e;
    e.target = targets[i];
    if (adversarial_feed && gen.chance(config.adversarial_lie_rate)) {
      e.truth = FeedEntryTruth::Adversarial;
      e.location = lie_location(world, host, config.noise_km, gen);
    } else if (gen.chance(config.stale_rate)) {
      // The previous tenant's city: plausible, consistent, and wrong.
      e.truth = FeedEntryTruth::Stale;
      e.location = jitter(random_city(world, gen), config.noise_km, gen);
    } else {
      e.truth = FeedEntryTruth::Honest;
      e.location = jitter(host.true_location, config.noise_km, gen);
    }
    append_feed_line(feed.text, world, host, e.location);
    feed.entries.push_back(e);
  }
  return feeds;
}

}  // namespace geoloc::sim
