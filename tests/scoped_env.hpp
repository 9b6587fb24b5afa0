/** @file Scoped environment-variable override for tests that exercise
 *  the SOFF_* knobs. */
#pragma once

#include <cstdlib>
#include <string>

namespace soff
{

/**
 * Sets (or clears, when value is nullptr) an environment variable for
 * the current scope and restores the previous state on destruction, so
 * a failing assertion that returns early cannot leave a value exported
 * for the tests that run after it in the same binary.
 */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

} // namespace soff
