/**
 * @file
 * Strided-stream kernels: canonical streams (T2's home turf), 2D
 * stencils, and a call-site-disambiguation stressor for T2's mPC.
 */

#ifndef DOL_WORKLOADS_STREAM_KERNELS_HPP
#define DOL_WORKLOADS_STREAM_KERNELS_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * N independent strided streams walked inside one inner loop, with
 * configurable compute density and an optional output (store) stream.
 * Imitates streaming kernels such as libquantum / milc / leslie3d.
 */
class StreamKernel : public Kernel
{
  public:
    struct Params
    {
        unsigned streams = 2;
        std::int64_t strideBytes = 64;
        std::uint64_t footprintBytes = 8ull << 20;
        unsigned aluPerIter = 2;
        bool storeStream = false;
        unsigned unroll = 1;
        double mispredictRate = 0.0005;
        std::uint64_t seed = 1;
    };

    StreamKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    std::vector<Addr> _bases;
    Addr _storeBase = 0;
    std::uint64_t _pos = 0;
    std::uint64_t _elems = 0;
    Pc _pcBase;
};

/**
 * Five-point 2D stencil sweep (lbm / zeusmp / bwaves stand-in): four
 * input streams at fixed offsets plus an output store stream; the
 * row-boundary transitions briefly break every stride.
 */
class StencilKernel : public Kernel
{
  public:
    struct Params
    {
        unsigned rows = 512;
        unsigned cols = 2048;     ///< 8-byte elements per row
        unsigned aluPerIter = 4;
        std::uint64_t seed = 1;
    };

    StencilKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Addr _srcBase;
    Addr _dstBase;
    unsigned _row = 1;
    unsigned _col = 1;
    Pc _pcBase;
};

/**
 * Two strided streams accessed through the *same static load* in a
 * helper function called from two different sites — only the RAS-xor
 * mPC can tell the streams apart (paper IV-A.2). Used by the T2
 * design-choice ablation.
 */
class CallStreamKernel : public Kernel
{
  public:
    struct Params
    {
        std::int64_t strideA = 64;
        std::int64_t strideB = 192;
        std::uint64_t footprintBytes = 4ull << 20;
        std::uint64_t seed = 1;
    };

    CallStreamKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Addr _baseA;
    Addr _baseB;
    std::uint64_t _pos = 0;
    Pc _pcBase;
};

} // namespace dol

#endif // DOL_WORKLOADS_STREAM_KERNELS_HPP
