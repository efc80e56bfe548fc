/**
 * @file
 * Run a shell command from a test and capture its output and exit code
 * (tests/test_bench_json.cc, tests/test_knowledge.cc).
 */

#ifndef REASON_TESTS_RUN_COMMAND_H
#define REASON_TESTS_RUN_COMMAND_H

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace reason {
namespace testutil {

/**
 * Run a shell command; returns its stdout and sets *exitCode to the
 * exit code for clean exits or -signal for signal-killed children,
 * so assertions compare real exit codes.
 */
inline std::string
runCommand(const std::string &cmd, int *exitCode)
{
    *exitCode = -1;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return {};
    char buf[4096];
    std::string text;
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        text += buf;
    int status = pclose(pipe);
    if (WIFEXITED(status))
        *exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        *exitCode = -WTERMSIG(status);
    else
        *exitCode = -1000;
    return text;
}

} // namespace testutil
} // namespace reason

#endif // REASON_TESTS_RUN_COMMAND_H
