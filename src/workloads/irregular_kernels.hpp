/**
 * @file
 * Irregular and spatially dense kernels: C1's dense-region pattern,
 * uniform-random accesses, bucket scatter (NPB IS stand-in), and a
 * CSR sparse traversal (CRONO / soplex / NPB CG stand-in).
 */

#ifndef DOL_WORKLOADS_IRREGULAR_KERNELS_HPP
#define DOL_WORKLOADS_IRREGULAR_KERNELS_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * Visits 1 KB regions and touches most lines of each in a scrambled
 * order through a single static load — non-strided but spatially
 * dense, exactly C1's target (paper section IV-C).
 */
class RegionKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t regions = 1u << 13; ///< 8 MB footprint
        unsigned linesPerVisit = 12;      ///< > dense threshold of 6
        bool randomRegionOrder = false;
        /** Accesses to each touched line (spatial+temporal reuse). */
        unsigned loadsPerLine = 3;
        unsigned aluPerLoad = 5;
        std::uint64_t seed = 1;
    };

    RegionKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _base;
    std::uint64_t _visit = 0;
    Pc _pcBase;
};

/** Uniform-random line accesses over a large footprint (pure HHF). */
class RandomKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t footprintBytes = 16ull << 20;
        unsigned aluPerIter = 12;
        unsigned loadsPerIter = 1;
        std::uint64_t seed = 1;
    };

    RandomKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _base;
    Pc _pcBase;
};

/**
 * Bucket scatter: a strided input stream drives random-indexed
 * read-modify-write stores (NPB IS histogramming stand-in).
 */
class BucketKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t inputBytes = 8ull << 20;
        std::uint64_t buckets = 1u << 16;
        unsigned aluPerIter = 6;
        std::uint64_t seed = 1;
    };

    BucketKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _inputBase;
    Addr _bucketBase;
    std::uint64_t _pos = 0;
    Pc _pcBase;
};

/**
 * CSR sparse traversal: sequential row pointers and column indices
 * (streams) plus an indirect gather x[col[e]] (irregular), with a
 * data-dependent inner-loop trip count — the shape of BFS, PageRank,
 * SpMV, and soplex.
 */
class CsrGraphKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t vertices = 1u << 15;
        unsigned avgDegree = 8;
        unsigned maxDegree = 32;
        unsigned aluPerEdge = 4;
        std::uint64_t seed = 1;
    };

    CsrGraphKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _rowBase;
    Addr _colBase;
    Addr _xBase;
    std::vector<std::uint32_t> _rowPtr;
    std::uint64_t _vertex = 0;
    Pc _pcBase;
};

} // namespace dol

#endif // DOL_WORKLOADS_IRREGULAR_KERNELS_HPP
