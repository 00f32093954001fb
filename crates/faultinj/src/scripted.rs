//! The one storage test double: [`ScriptedBackend`] forwards to any
//! [`StorageBackend`], logs every call in order, and turns the calls its
//! [`Rule`]s match into errors or panics.
//!
//! Write-order and read-count tests read the log (FORMATS §7's crash
//! cuts replay its puts and deletes; "retention reads nothing" counts
//! its gets); fault tests script the failure instead of hand-writing a
//! backend for it.

use scrutiny_ckpt::CkptError;
use scrutiny_engine::StorageBackend;
use std::sync::{Arc, Mutex};

/// A [`StorageBackend`] method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// [`StorageBackend::put`].
    Put,
    /// [`StorageBackend::get`].
    Get,
    /// [`StorageBackend::list`].
    List,
    /// [`StorageBackend::delete`].
    Delete,
}

/// One logged call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Which method was called.
    pub op: Op,
    /// The object name; empty for [`Op::List`].
    pub name: String,
    /// The bytes of a put; empty for every other op.
    pub bytes: Vec<u8>,
    /// Whether the call returned `Ok`.
    pub ok: bool,
}

type Matcher = Box<dyn Fn(Op, &str) -> bool + Send + Sync>;

enum Fault {
    Fail(Box<dyn Fn(&str) -> CkptError + Send + Sync>),
    Panic(String),
}

/// A fault for the calls a predicate over `(op, name)` matches. It fires
/// on every matching call, or on the first `n` after [`Rule::first`].
pub struct Rule {
    matches: Matcher,
    fault: Fault,
    left: Option<usize>,
}

impl Rule {
    /// Matching calls return `error(name)` without reaching the inner
    /// backend.
    pub fn fail(
        matches: impl Fn(Op, &str) -> bool + Send + Sync + 'static,
        error: impl Fn(&str) -> CkptError + Send + Sync + 'static,
    ) -> Self {
        Rule {
            matches: Box::new(matches),
            fault: Fault::Fail(Box::new(error)),
            left: None,
        }
    }

    /// Matching calls panic with `message` without reaching the inner
    /// backend.
    pub fn panic(
        matches: impl Fn(Op, &str) -> bool + Send + Sync + 'static,
        message: impl Into<String>,
    ) -> Self {
        Rule {
            matches: Box::new(matches),
            fault: Fault::Panic(message.into()),
            left: None,
        }
    }

    /// Fire on only the first `n` matching calls.
    pub fn first(mut self, n: usize) -> Self {
        self.left = Some(n);
        self
    }

    /// The fault for this call, if the rule fires on it: the error, or
    /// the panic message.
    fn fire(&mut self, op: Op, name: &str) -> Option<Result<CkptError, String>> {
        if self.left == Some(0) || !(self.matches)(op, name) {
            return None;
        }
        if let Some(left) = &mut self.left {
            *left -= 1;
        }
        Some(match &self.fault {
            Fault::Fail(error) => Ok(error(name)),
            Fault::Panic(message) => Err(message.clone()),
        })
    }
}

/// Forwards to an inner backend, logging every call and applying the
/// first [`Rule`] that fires on it. Clones share the log and the rules,
/// so a test keeps one clone to read what another, moved into a store
/// or an engine, was asked to do.
#[derive(Clone)]
pub struct ScriptedBackend {
    inner: Arc<dyn StorageBackend>,
    rules: Arc<Mutex<Vec<Rule>>>,
    log: Arc<Mutex<Vec<Call>>>,
}

impl ScriptedBackend {
    /// A wrapper over `inner` with no rules and an empty log.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        ScriptedBackend {
            inner,
            rules: Arc::default(),
            log: Arc::default(),
        }
    }

    /// Add a rule (builder style); earlier rules are tried first.
    pub fn rule(self, rule: Rule) -> Self {
        self.rules.lock().expect("a rule panicked").push(rule);
        self
    }

    /// The calls logged since the last `take_log`, in call order.
    pub fn take_log(&self) -> Vec<Call> {
        std::mem::take(&mut *self.log.lock().expect("log poisoned"))
    }

    fn call<T>(
        &self,
        op: Op,
        name: &str,
        bytes: &[u8],
        forward: impl FnOnce(&dyn StorageBackend) -> Result<T, CkptError>,
    ) -> Result<T, CkptError> {
        let mut call = Call {
            op,
            name: name.to_string(),
            bytes: bytes.to_vec(),
            ok: false,
        };
        let fired = self
            .rules
            .lock()
            .expect("a rule panicked")
            .iter_mut()
            .find_map(|rule| rule.fire(op, name));
        let result = match fired {
            None => forward(self.inner.as_ref()),
            Some(Ok(error)) => Err(error),
            Some(Err(message)) => {
                self.log.lock().expect("log poisoned").push(call);
                panic!("{message}");
            }
        };
        call.ok = result.is_ok();
        self.log.lock().expect("log poisoned").push(call);
        result
    }
}

impl StorageBackend for ScriptedBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        self.call(Op::Put, name, bytes, |inner| inner.put(name, bytes))
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.call(Op::Get, name, &[], |inner| inner.get(name))
    }
    fn list(&self) -> Result<Vec<String>, CkptError> {
        self.call(Op::List, "", &[], |inner| inner.list())
    }
    fn delete(&self, name: &str) -> Result<(), CkptError> {
        self.call(Op::Delete, name, &[], |inner| inner.delete(name))
    }
    fn label(&self) -> String {
        format!("scripted:{}", self.inner.label())
    }
}
