#include "op2ca/mesh/mesh_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "op2ca/util/error.hpp"

namespace op2ca::mesh {
namespace {

/// Token reader that skips '#' comments to end of line.
class Tokens {
public:
  explicit Tokens(std::istream& in) : in_(in) {}

  bool next(std::string* out) {
    while (in_ >> *out) {
      if ((*out)[0] == '#') {
        in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        continue;
      }
      return true;
    }
    return false;
  }

  std::string expect(const std::string& what) {
    std::string tok;
    OP2CA_REQUIRE(next(&tok), "mesh file ended while reading " + what);
    return tok;
  }

  gidx_t expect_int(const std::string& what) {
    const std::string tok = expect(what);
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(tok, &pos);
      OP2CA_REQUIRE(pos == tok.size(), "bad integer for " + what);
      return static_cast<gidx_t>(v);
    } catch (const std::exception&) {
      raise("mesh file: bad integer '" + tok + "' for " + what);
    }
  }

  double expect_double(const std::string& what) {
    const std::string tok = expect(what);
    try {
      std::size_t pos = 0;
      const double v = std::stod(tok, &pos);
      OP2CA_REQUIRE(pos == tok.size(), "bad number for " + what);
      return v;
    } catch (const std::exception&) {
      raise("mesh file: bad number '" + tok + "' for " + what);
    }
  }

private:
  std::istream& in_;
};

set_id require_set(const MeshDef& m, const std::string& name) {
  const auto id = m.find_set(name);
  OP2CA_REQUIRE(id.has_value(), "mesh file references unknown set '" +
                                    name + "'");
  return *id;
}

/// Value count of a `width`-wide section over set `s`; raises naming the
/// directive and the set when size x width overflows gidx_t.
gidx_t section_count(const MeshDef& m, set_id s, gidx_t width,
                     const std::string& directive) {
  const SetDef& set = m.set(s);
  OP2CA_REQUIRE(set.size <= std::numeric_limits<gidx_t>::max() / width,
                "mesh file: " + directive + " over set '" + set.name +
                    "': size " + std::to_string(set.size) + " x " +
                    std::to_string(width) + " overflows");
  return set.size * width;
}

/// Cap on the values reserved before reading: the count comes from the
/// file, so a short file declaring a huge set fails at its end ("mesh
/// file ended while reading ...") rather than in the allocator.
constexpr gidx_t kMaxReserve = gidx_t{1} << 20;

}  // namespace

MeshDef read_meshdef(std::istream& in) {
  Tokens tok(in);
  std::string word = tok.expect("header");
  OP2CA_REQUIRE(word == "op2ca-mesh",
                "mesh file: expected 'op2ca-mesh' header, got '" + word +
                    "'");
  const gidx_t version = tok.expect_int("format version");
  OP2CA_REQUIRE(version == 1, "mesh file: unsupported version " +
                                  std::to_string(version));

  MeshDef mesh;
  while (tok.next(&word)) {
    if (word == "set") {
      const std::string name = tok.expect("set name");
      const gidx_t size = tok.expect_int("set size");
      mesh.add_set(name, size);
    } else if (word == "map") {
      const std::string name = tok.expect("map name");
      const set_id from = require_set(mesh, tok.expect("map from-set"));
      const set_id to = require_set(mesh, tok.expect("map to-set"));
      const gidx_t arity = tok.expect_int("map arity");
      OP2CA_REQUIRE(arity > 0 && arity <= 64,
                    "mesh file: implausible map arity");
      const gidx_t count =
          section_count(mesh, from, arity, "map '" + name + "'");
      GIdxVec targets;
      targets.reserve(static_cast<std::size_t>(std::min(count, kMaxReserve)));
      for (gidx_t i = 0; i < count; ++i)
        targets.push_back(tok.expect_int("map target"));
      mesh.add_map(name, from, to, static_cast<int>(arity),
                   std::move(targets));
    } else if (word == "dat") {
      const std::string name = tok.expect("dat name");
      const set_id set = require_set(mesh, tok.expect("dat set"));
      const gidx_t dim = tok.expect_int("dat dim");
      OP2CA_REQUIRE(dim > 0 && dim <= 64,
                    "mesh file: implausible dat dim");
      const gidx_t count =
          section_count(mesh, set, dim, "dat '" + name + "'");
      std::vector<double> data;
      data.reserve(static_cast<std::size_t>(std::min(count, kMaxReserve)));
      for (gidx_t i = 0; i < count; ++i)
        data.push_back(tok.expect_double("dat value"));
      mesh.add_dat(name, set, static_cast<int>(dim), std::move(data));
    } else if (word == "coords") {
      const set_id set = require_set(mesh, tok.expect("coords set"));
      const std::string dat_name = tok.expect("coords dat");
      const auto dat = mesh.find_dat(dat_name);
      OP2CA_REQUIRE(dat.has_value(),
                    "mesh file: coords references unknown dat '" +
                        dat_name + "'");
      mesh.set_coords(set, *dat);
    } else {
      raise("mesh file: unknown directive '" + word + "'");
    }
  }
  OP2CA_REQUIRE(mesh.num_sets() > 0, "mesh file declared no sets");
  return mesh;
}

MeshDef read_meshdef_file(const std::string& path) {
  std::ifstream in(path);
  OP2CA_REQUIRE(in.good(), "cannot open mesh file " + path);
  return read_meshdef(in);
}

void write_meshdef(std::ostream& os, const MeshDef& mesh) {
  os << "op2ca-mesh 1\n";
  for (set_id s = 0; s < mesh.num_sets(); ++s)
    os << "set " << mesh.set(s).name << ' ' << mesh.set(s).size << '\n';
  for (map_id m = 0; m < mesh.num_maps(); ++m) {
    const MapDef& mp = mesh.map(m);
    os << "map " << mp.name << ' ' << mesh.set(mp.from).name << ' '
       << mesh.set(mp.to).name << ' ' << mp.arity << '\n';
    for (std::size_t i = 0; i < mp.targets.size(); ++i)
      os << mp.targets[i]
         << ((i + 1) % static_cast<std::size_t>(mp.arity) == 0 ? '\n'
                                                               : ' ');
  }
  os.precision(17);
  for (dat_id d = 0; d < mesh.num_dats(); ++d) {
    const DatDef& dd = mesh.dat(d);
    const std::vector<double>& values = mesh.dat_values(d);
    os << "dat " << dd.name << ' ' << mesh.set(dd.set).name << ' '
       << dd.dim << '\n';
    for (std::size_t i = 0; i < values.size(); ++i)
      os << values[i]
         << ((i + 1) % static_cast<std::size_t>(dd.dim) == 0 ? '\n' : ' ');
  }
  if (mesh.has_coords())
    os << "coords " << mesh.set(mesh.coords_set()).name << ' '
       << mesh.dat(mesh.coords_dat()).name << '\n';
}

void write_meshdef_file(const std::string& path, const MeshDef& mesh) {
  std::ofstream os(path);
  OP2CA_REQUIRE(os.good(), "cannot open " + path + " for writing");
  write_meshdef(os, mesh);
  OP2CA_REQUIRE(os.good(), "write failed for " + path);
}

}  // namespace op2ca::mesh
