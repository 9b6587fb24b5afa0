/**
 * @file
 * The FPGA's external memory (the OpenCL global memory, paper §III-A).
 *
 * A flat little-endian byte array. The runtime's allocator hands out
 * buffer base addresses inside it; caches fill from and write back to
 * it. Address 0 is reserved so null pointers trap.
 *
 * The array is demand-zero: it is one calloc'd block, so opening a
 * device touches no page and bytes never written read as zero. Every
 * write goes through writeScalar/writeBlock, which raise the written
 * extent (one past the highest byte written); copies and comparisons
 * look no further than that.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>

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
    explicit GlobalMemory(uint64_t size_bytes)
        : bytes_(static_cast<uint8_t *>(
              std::calloc(static_cast<size_t>(size_bytes), 1))),
          size_(size_bytes)
    {
        if (bytes_ == nullptr)
            throw std::bad_alloc();
    }

    /** Copies the written extent; past it both copies read zero. */
    GlobalMemory(const GlobalMemory &other) : GlobalMemory(other.size_)
    {
        uint64_t n = other.extent();
        std::memcpy(bytes_.get(), other.bytes_.get(), n);
        extent_.store(n, std::memory_order_relaxed);
    }

    uint64_t size() const { return size_; }

    /** One past the highest byte written so far (0 if none). */
    uint64_t
    extent() const
    {
        return extent_.load(std::memory_order_relaxed);
    }

    /**
     * The lowest address whose byte differs from `other`'s, or none.
     * Both memories must be the same size. Only bytes below the larger
     * of the two extents are compared: past it both read zero.
     */
    std::optional<uint64_t>
    firstDifference(const GlobalMemory &other) const
    {
        SOFF_ASSERT(size_ == other.size_,
                    "comparing global memories of different sizes");
        const uint8_t *a = bytes_.get();
        const uint8_t *b = other.bytes_.get();
        const uint8_t *end = a + std::max(extent(), other.extent());
        const uint8_t *at = std::mismatch(a, end, b).first;
        if (at == end)
            return std::nullopt;
        return static_cast<uint64_t>(at - a);
    }

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
        raiseExtent(addr + size);
    }

    void
    readBlock(uint64_t addr, uint32_t size, uint8_t *out) const
    {
        check(addr, size);
        std::memcpy(out, bytes_.get() + addr, size);
    }

    void
    writeBlock(uint64_t addr, uint32_t size, const uint8_t *in)
    {
        check(addr, size);
        std::memcpy(bytes_.get() + addr, in, size);
        raiseExtent(addr + size);
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

    /** A relaxed fetch-max: concurrent launches write disjoint buffers
     *  of one memory, and whoever reads the extent has synchronized
     *  with those writers first (thread join or the board mutex). */
    void
    raiseExtent(uint64_t end)
    {
        uint64_t cur = extent_.load(std::memory_order_relaxed);
        while (cur < end &&
               !extent_.compare_exchange_weak(cur, end,
                                              std::memory_order_relaxed)) {
        }
    }

    struct FreeBytes
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], FreeBytes> bytes_;
    uint64_t size_;
    std::atomic<uint64_t> extent_{0};
};

} // namespace soff::memsys
