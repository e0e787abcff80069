#include "noc/mesh.h"

namespace ocb::noc {

namespace {

TileCoord neighbour(TileCoord t, Direction dir) {
  switch (dir) {
    case Direction::kEast:
      return TileCoord{t.x + 1, t.y};
    case Direction::kWest:
      return TileCoord{t.x - 1, t.y};
    case Direction::kSouth:
      return TileCoord{t.x, t.y + 1};
    case Direction::kNorth:
      return TileCoord{t.x, t.y - 1};
  }
  return t;  // unreachable
}

}  // namespace

Mesh::Mesh(sim::Engine& engine, const Topology& topology, sim::Duration l_hop,
           sim::Duration link_occupancy)
    : engine_(&engine),
      topology_(topology),
      l_hop_(l_hop),
      link_occupancy_(link_occupancy) {
  OCB_REQUIRE(l_hop > 0, "L_hop must be positive");
  OCB_REQUIRE(link_occupancy <= l_hop,
              "link occupancy above L_hop breaks the cut-through pipeline model");
  if (topology_.num_dies() > 1) {
    OCB_REQUIRE(link_occupancy + topology_.interposer_extra_occupancy() <=
                    l_hop + topology_.interposer_extra_latency(),
                "interposer occupancy above interposer hop latency breaks the "
                "cut-through pipeline model");
  }
  const int tiles = topology_.num_tiles();
  const std::size_t slots = static_cast<std::size_t>(topology_.num_link_slots());
  links_.resize(slots);
  link_latency_.assign(slots, l_hop_);
  link_occ_.assign(slots, link_occupancy_);
  link_busy_.assign(slots, 0);
  link_packets_.assign(slots, 0);
  for (int t = 0; t < tiles; ++t) {
    const TileCoord from = topology_.tile_coord(t);
    for (int d = 0; d < 4; ++d) {
      const TileCoord to = neighbour(from, static_cast<Direction>(d));
      if (to.x < 0 || to.x >= topology_.mesh_cols() || to.y < 0 ||
          to.y >= topology_.mesh_rows()) {
        continue;  // edge of the mesh; slot never used
      }
      if (topology_.link_crosses_die(from, to)) {
        const std::size_t slot = static_cast<std::size_t>(t * 4 + d);
        link_latency_[slot] += topology_.interposer_extra_latency();
        link_occ_[slot] += topology_.interposer_extra_occupancy();
      }
    }
  }
}

sim::Time Mesh::reserve_path(sim::Time departure, TileCoord src, TileCoord dst) {
  int tile = topology_.tile_index(src);
  topology_.tile_index(dst);  // bounds check
  // The packet spends L_hop in the source router, then one hop latency per
  // link crossed (each subsequent router; interposer links are slower),
  // holding every link for its serialization time starting when the head
  // flit enters it. Links are visited in xy_route's order: X, then Y.
  sim::Time cursor = departure;
  const auto walk = [&](int hops, Direction dir, int step) {
    for (int i = 0; i < hops; ++i) {
      const auto link = static_cast<std::size_t>(tile * 4 + static_cast<int>(dir));
      const sim::Duration occ = link_occ_[link];
      const sim::Time start = links_[link].reserve(cursor, occ) - occ;
      link_busy_[link] += occ;
      ++link_packets_[link];
      cursor = start + link_latency_[link];
      tile += step;
    }
  };
  const int cols = topology_.mesh_cols();
  if (dst.x >= src.x) {
    walk(dst.x - src.x, Direction::kEast, 1);
  } else {
    walk(src.x - dst.x, Direction::kWest, -1);
  }
  if (dst.y >= src.y) {
    walk(dst.y - src.y, Direction::kSouth, cols);
  } else {
    walk(src.y - dst.y, Direction::kNorth, -cols);
  }
  // Final (destination) router traversal; for src == dst this is the single
  // local-router hop (d = 1).
  return cursor + l_hop_;
}

sim::Duration Mesh::link_total_occupancy(LinkId link) const {
  OCB_REQUIRE(link >= 0 && link < topology_.num_link_slots(),
              "link id out of range");
  return link_busy_[static_cast<std::size_t>(link)];
}

std::uint64_t Mesh::link_packets(LinkId link) const {
  OCB_REQUIRE(link >= 0 && link < topology_.num_link_slots(),
              "link id out of range");
  return link_packets_[static_cast<std::size_t>(link)];
}

}  // namespace ocb::noc
