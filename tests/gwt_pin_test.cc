/**
 * @file
 * Decoding-graph and GWT pins.
 *
 * Both tables are pure functions of the error model, and every decoder
 * reads them, so a change to how they are built must leave them bit for
 * bit the same. These tests pin, for memory circuits over d = 3–9,
 * p = 1e-4 / 1e-3 / 5e-3 and uniform or drifted noise, a digest of the
 * decoding graph (its build stats, its edges in order with their
 * probability and weight bit patterns and observable masks, each node's
 * adjacency in order and its boundary edge) and a digest of the GWT
 * (every entry's quantized weight, exact weight bit pattern and
 * observable mask). The GWT pins hold at ASTREA_THREADS = 1, 2 and 4:
 * which worker builds which row must not show. The values were
 * recorded once and the code must reproduce them exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <sstream>
#include <string>

#include "harness/memory_experiment.hh"

namespace astrea
{
namespace
{

/** SplitMix64's finalizer. */
uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Fold one value into a running digest. */
void
fold(uint64_t &digest, uint64_t v)
{
    digest = mix(digest ^ v);
}

uint64_t
graphDigest(const DecodingGraph &g)
{
    uint64_t h = 0;
    const GraphBuildStats &s = g.stats();
    fold(h, g.numNodes());
    fold(h, s.mechanismsUsed);
    fold(h, s.decomposedMechanisms);
    fold(h, s.undetectableLogical);
    fold(h, s.obsConflicts);
    fold(h, g.edges().size());
    for (const GraphEdge &e : g.edges()) {
        fold(h, e.u);
        fold(h, e.v);
        fold(h, std::bit_cast<uint64_t>(e.probability));
        fold(h, std::bit_cast<uint64_t>(e.weight));
        fold(h, e.obsMask);
    }
    for (uint32_t n = 0; n < g.numNodes(); n++) {
        fold(h, g.neighbors(n).size());
        for (auto [edge, other] : g.neighbors(n)) {
            fold(h, edge);
            fold(h, other);
        }
        fold(h, static_cast<uint64_t>(g.boundaryEdge(n)));
    }
    return h;
}

uint64_t
gwtDigest(const GlobalWeightTable &t)
{
    uint64_t h = 0;
    fold(h, t.size());
    for (uint32_t i = 0; i < t.size(); i++) {
        for (uint32_t j = 0; j < t.size(); j++) {
            fold(h, t.pairWeight(i, j));
            fold(h, std::bit_cast<uint64_t>(t.exactWeight(i, j)));
            fold(h, t.pairObs(i, j));
        }
    }
    return h;
}

/** One configuration and its recorded digests. */
struct TablePin
{
    uint32_t distance;
    double p;
    double driftSpread;
    uint64_t graph;
    uint64_t gwt;
};

const TablePin kPins[] = {
    {3, 1e-4, 0.0, 0x5c24c28a9e135f0full, 0x40da66bcd788961ull},
    {3, 1e-4, 4.0, 0x63649e3a0b2c26ffull, 0xb6df6020bb491bceull},
    {3, 1e-3, 0.0, 0xceea5b4d215c3a85ull, 0xe3defc4f97ad6852ull},
    {3, 1e-3, 4.0, 0xc7b5a5c9b24a4615ull, 0x63d0de95df492cb4ull},
    {3, 5e-3, 0.0, 0x745a38345a28b595ull, 0xe00e00be1d75c28eull},
    {3, 5e-3, 4.0, 0xb7a140e58d9ebeeaull, 0x3d8659e2f657ace5ull},
    {5, 1e-4, 0.0, 0x37d2abdd2ac027b0ull, 0xff9fa9787e09964bull},
    {5, 1e-4, 4.0, 0x41ff49f8fd9d96d8ull, 0xd720b13b18efb3bdull},
    {5, 1e-3, 0.0, 0xd98ad08910429b7ull, 0x3bcab15aff3d2e3eull},
    {5, 1e-3, 4.0, 0xc9c3ecf4d799a801ull, 0x7f27c74ba127d1aeull},
    {5, 5e-3, 0.0, 0xf249c022f338ac1eull, 0x9eaa8d67efe1b93full},
    {5, 5e-3, 4.0, 0xd55a033a7de75f55ull, 0x4a4a3d178162515bull},
    {7, 1e-4, 0.0, 0xe0ec3a386ecbe4a7ull, 0xec1338597488465bull},
    {7, 1e-4, 4.0, 0xbfb00bf6338466a9ull, 0xed9962db4b0b4fccull},
    {7, 1e-3, 0.0, 0x763d5490532b24d5ull, 0x850594b9e496f158ull},
    {7, 1e-3, 4.0, 0x6406494a92ee6611ull, 0xf58cbc767d6fc5d0ull},
    {7, 5e-3, 0.0, 0xeb2cb024d2179d78ull, 0xd2465d7a5585b092ull},
    {7, 5e-3, 4.0, 0xeccd6937e71822dbull, 0xe6bda49366b80d59ull},
    {9, 1e-4, 0.0, 0xb7cc2dfdf5c04612ull, 0xf9f1bf21452516afull},
    {9, 1e-4, 4.0, 0x8f5c6682a8df76c2ull, 0x46dabafa08cf50cbull},
    {9, 1e-3, 0.0, 0xd9a5c25ca7a62c0aull, 0x642e8bda95d1484eull},
    {9, 1e-3, 4.0, 0x2a60a5a2785d2755ull, 0x4e153e097c7afe77ull},
    {9, 5e-3, 0.0, 0x2ffe7a497bbc63baull, 0x7876d827c4ffc5caull},
    {9, 5e-3, 4.0, 0x505087fbad00375aull, 0x489b5ec63508176full},
};

ExperimentConfig
configOf(const TablePin &pin)
{
    ExperimentConfig cfg;
    cfg.distance = pin.distance;
    cfg.physicalErrorRate = pin.p;
    cfg.driftSpread = pin.driftSpread;
    cfg.driftSeed = 0x5eed;
    return cfg;
}

std::string
nameOf(const TablePin &pin)
{
    std::ostringstream os;
    os << "d=" << pin.distance << " p=" << pin.p
       << " drift=" << pin.driftSpread;
    return os.str();
}

/** Sets ASTREA_THREADS for its lifetime. */
struct ThreadsEnv
{
    explicit ThreadsEnv(unsigned threads)
    {
        setenv("ASTREA_THREADS", std::to_string(threads).c_str(), 1);
    }
    ~ThreadsEnv() { unsetenv("ASTREA_THREADS"); }
};

TEST(GwtPin, TablesMatchRecordedDigestsAtEveryThreadCount)
{
    for (const TablePin &pin : kPins) {
        for (unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(nameOf(pin) + " threads=" +
                         std::to_string(threads));
            ThreadsEnv env(threads);
            const ExperimentContext ctx(configOf(pin));
            EXPECT_EQ(graphDigest(ctx.graph()), pin.graph);
            EXPECT_EQ(gwtDigest(ctx.gwt()), pin.gwt);
        }
    }
}

} // namespace
} // namespace astrea
