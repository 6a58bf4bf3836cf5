//! The command-line contract the `reproduce_all`, `bench` and
//! `access_path` binaries share with `xplacer`: an argument that is not
//! UTF-8 is a usage error, and no write panics. A reader that closes
//! stdout early leaves the exit code as it is, any other stdout error
//! exits 2 with `<binary>: cannot write to stdout: …`, and a failed stderr
//! write is dropped.

use std::fmt::Display;
use std::io::{self, Write};
use std::process::ExitCode;

/// The command line after the program name as strings, or which argument
/// (counted from 1) is not valid UTF-8.
pub fn utf8_args() -> Result<Vec<String>, String> {
    std::env::args_os()
        .skip(1)
        .enumerate()
        .map(|(i, a)| {
            a.into_string()
                .map_err(|_| format!("argument {} is not valid UTF-8", i + 1))
        })
        .collect()
}

/// Stdout and stderr of one binary run.
pub struct Out {
    /// Program name prefixed to the messages this writes.
    bin: &'static str,
    /// The first error a stdout write returned; later writes are skipped.
    stdout_error: Option<io::Error>,
}

impl Out {
    pub fn new(bin: &'static str) -> Self {
        Out {
            bin,
            stdout_error: None,
        }
    }

    /// Write `text` to stdout, unless an earlier write failed.
    pub fn out(&mut self, text: impl Display) {
        if self.stdout_error.is_none() {
            if let Err(e) = write!(io::stdout().lock(), "{text}") {
                self.stdout_error = Some(e);
            }
        }
    }

    /// Write `text` to stderr, dropping a failure.
    pub fn err(&self, text: impl Display) {
        let _ = write!(io::stderr().lock(), "{text}");
    }

    /// `<bin>: <msg>` on stderr.
    pub fn fail(&self, msg: impl Display) {
        self.err(format_args!("{}: {msg}\n", self.bin));
    }

    /// The exit code of a run that ends with `code`, once stdout is
    /// flushed: a closed stdout keeps it, any other stdout error makes it
    /// 2.
    pub fn finish(mut self, code: ExitCode) -> ExitCode {
        let stdout = match self.stdout_error.take() {
            Some(e) => Err(e),
            None => io::stdout().flush(),
        };
        match stdout {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                self.fail(format_args!("cannot write to stdout: {e}"));
                ExitCode::from(2)
            }
            _ => code,
        }
    }
}
