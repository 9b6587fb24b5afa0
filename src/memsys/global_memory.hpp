/**
 * @file
 * The FPGA's external memory (the OpenCL global memory, paper §III-A).
 *
 * A flat little-endian byte array. The runtime's allocator hands out
 * buffer base addresses inside it; caches fill from and write back to
 * it. Address 0 is reserved so null pointers trap.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace soff::memsys
{

/**
 * An access outside device memory (global memory or a __local
 * variable): a kernel's wild pointer or null dereference rather than a
 * SOFF bug, so it throws instead of asserting. The runtime reports it
 * as CL_OUT_OF_RESOURCES.
 */
class MemoryFault : public RuntimeError
{
  public:
    MemoryFault(uint64_t addr, uint64_t bytes)
        : RuntimeError(strFormat(
              "%llu-byte access at address 0x%llx is outside device "
              "memory",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(addr))),
          addr_(addr), bytes_(bytes)
    {}

    uint64_t addr() const { return addr_; }
    uint64_t bytes() const { return bytes_; }

  private:
    uint64_t addr_;
    uint64_t bytes_;
};

/** Byte-addressable device global memory. */
class GlobalMemory
{
  public:
    explicit GlobalMemory(uint64_t size_bytes) : bytes_(size_bytes, 0) {}

    uint64_t size() const { return bytes_.size(); }

    uint8_t *data() { return bytes_.data(); }
    const uint8_t *data() const { return bytes_.data(); }

    /** Reads a little-endian scalar of 1..8 bytes. */
    uint64_t
    readScalar(uint64_t addr, uint32_t size) const
    {
        checkScalar(addr, size);
        uint64_t v = 0;
        for (uint32_t i = 0; i < size; ++i)
            v |= static_cast<uint64_t>(bytes_[addr + i]) << (8 * i);
        return v;
    }

    /** Writes a little-endian scalar of 1..8 bytes. */
    void
    writeScalar(uint64_t addr, uint32_t size, uint64_t value)
    {
        checkScalar(addr, size);
        for (uint32_t i = 0; i < size; ++i)
            bytes_[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    }

    void
    readBlock(uint64_t addr, uint32_t size, uint8_t *out) const
    {
        check(addr, size);
        std::memcpy(out, bytes_.data() + addr, size);
    }

    void
    writeBlock(uint64_t addr, uint32_t size, const uint8_t *in)
    {
        check(addr, size);
        std::memcpy(bytes_.data() + addr, in, size);
    }

  private:
    /** Throws MemoryFault unless [addr, addr + n) lies inside memory;
     *  written so that addr + n never overflows. */
    void
    check(uint64_t addr, uint64_t n) const
    {
        if (!(addr <= size() && n <= size() - addr))
            throw MemoryFault(addr, n);
    }

    /** Scalar accesses also trap the reserved null address. */
    void
    checkScalar(uint64_t addr, uint64_t n) const
    {
        if (addr == 0)
            throw MemoryFault(addr, n);
        check(addr, n);
    }

    std::vector<uint8_t> bytes_;
};

} // namespace soff::memsys
