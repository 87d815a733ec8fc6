/**
 * @file
 * The examples' one optional positional argument.
 */

#ifndef QLA_EXAMPLES_EXAMPLE_ARGS_H
#define QLA_EXAMPLES_EXAMPLE_ARGS_H

#include <cerrno>
#include <cstdio>
#include <cstdlib>

/**
 * The whole-decimal integer in argv[1], or @p fallback when there is no
 * argument. Anything else -- extra arguments, a malformed value, or one
 * outside [@p lo, @p hi] -- prints the usage line, which calls the
 * argument @p name, and exits 2, so a typo never runs a vacuous
 * experiment or trips a library assertion.
 */
inline long long
positionalArgument(int argc, char **argv, long long fallback, long long lo,
                   long long hi, const char *name)
{
    if (argc == 1)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const long long value = argc == 2 ? std::strtoll(argv[1], &end, 10) : 0;
    if (argc > 2 || end == argv[1] || *end != '\0' || errno == ERANGE
        || value < lo || value > hi) {
        std::fprintf(stderr,
                     "usage: %s [%s]\n  %s: an integer in [%lld, %lld]\n",
                     argv[0], name, name, lo, hi);
        std::exit(2);
    }
    return value;
}

#endif // QLA_EXAMPLES_EXAMPLE_ARGS_H
