//! A call through a trait object reaches only that trait's
//! implementors: the non-trait `ListWriter::write_page` helper, which
//! takes the write lock, must not look like a callee of the
//! `dyn Pager` call made under that same lock.
use std::sync::Mutex;

pub trait Pager {
    fn write_page(&self, id: u32);
}

pub struct MemPager;

impl Pager for MemPager {
    fn write_page(&self, _id: u32) {}
}

pub struct Env {
    pub pager: Box<dyn Pager>,
    pub write_state: Mutex<u32>,
}

impl Env {
    /// Writes a page back while holding the write lock.
    pub fn flush_dirty(&self) {
        let w = self.write_state.lock().unwrap();
        self.pager.write_page(*w);
        drop(w);
    }
}

pub struct ListWriter {
    pub env: Env,
}

impl ListWriter {
    /// Same name and arity as the trait method, but no `Pager` impl.
    pub fn write_page(&self, id: u32) {
        let mut w = self.env.write_state.lock().unwrap();
        *w += id;
        drop(w);
    }
}
