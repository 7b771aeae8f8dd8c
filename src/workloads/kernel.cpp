#include "workloads/kernel.hpp"

#include <algorithm>

namespace dol
{

ReplayKernel::ReplayKernel(MemoryImage &memory, std::string name,
                           std::vector<Instr> instrs, bool loop)
    : Kernel(std::move(name), memory), _instrs(std::move(instrs)),
      _loop(loop)
{
    // Walking the stream backwards leaves every address holding the
    // value of its first access.
    for (auto it = _instrs.rbegin(); it != _instrs.rend(); ++it) {
        if (it->isMem())
            memory.write64(it->addr, it->value);
    }
}

bool
ReplayKernel::generate()
{
    if (_instrs.empty())
        return false;
    if (_position >= _instrs.size()) {
        if (!_loop)
            return false;
        _position = 0;
    }
    // One batch per generate() call keeps queue occupancy bounded
    // while amortising the virtual-call overhead.
    const std::size_t batch =
        std::min<std::size_t>(64, _instrs.size() - _position);
    for (std::size_t i = 0; i < batch; ++i)
        push(_instrs[_position + i]);
    _position += batch;
    return true;
}

} // namespace dol
